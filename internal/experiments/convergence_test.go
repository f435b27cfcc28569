package experiments

import (
	"strings"
	"testing"
)

func TestRunConvergenceChurnDecays(t *testing.T) {
	opt := Options{N: 800, Queries: 10, Seed: 31}
	res, err := RunConvergence(opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 8 {
		t.Fatalf("got %d rounds", len(res.Rounds))
	}
	// The Manage() loop must settle: late-round churn well below the
	// first round's.
	early := res.Rounds[0].Connects + res.Rounds[0].Disconnects
	late := res.Rounds[len(res.Rounds)-1].Connects + res.Rounds[len(res.Rounds)-1].Disconnects
	if early == 0 {
		t.Fatal("first round produced no churn — tracer broken?")
	}
	if late*3 > early {
		t.Fatalf("churn not decaying: round1=%d, final=%d", early, late)
	}
	// Quality must not degrade as the loop runs.
	if res.Rounds[len(res.Rounds)-1].MeanDegree < res.Rounds[0].MeanDegree-0.5 {
		t.Fatal("mean degree degraded across rounds")
	}
	for _, round := range res.Rounds {
		if round.Lambda1 <= 0 {
			t.Fatalf("round %d: overlay disconnected (λ₁=%v)", round.Round, round.Lambda1)
		}
	}
	if !strings.Contains(res.Render(), "lambda1") {
		t.Fatal("render malformed")
	}
}

func TestRunConvergenceDefaultRounds(t *testing.T) {
	res, err := RunConvergence(Options{N: 300, Queries: 10, Seed: 33}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 10 {
		t.Fatalf("default rounds = %d, want 10", len(res.Rounds))
	}
}
