package main

import (
	"bytes"
	"testing"
)

// TestLiveChurnReplays runs -live-churn's storm at its default 24 nodes
// twice per seed: the printed timeline and action hash must match byte
// for byte, and the overlay must end whole.
func TestLiveChurnReplays(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		var out [2]bytes.Buffer
		for i := range out {
			s, err := runLiveChurn(&out[i], 24, seed, nil, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if g := s.Timeline[len(s.Timeline)-1].GiantFraction; g != 1 {
				t.Fatalf("seed %d: the last snapshot's giant fraction is %v, want 1", seed, g)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Fatalf("seed %d: two runs printed different bytes:\n%s\n%s", seed, out[0].Bytes(), out[1].Bytes())
		}
	}
}
