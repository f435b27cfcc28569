package stream

import "testing"

// benchSwarm runs one churnScenario per iteration — 250 transfers on a
// 2000-node overlay — timing only the event loop: the overlay build and
// the manifests are set-up. It reports engine events per second of that
// loop; allocs/op is per whole scenario.
func benchSwarm(b *testing.B, churn bool) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc := newChurnScenario(b, 2000, 250, 1, churn, nil)
		b.StartTimer()
		sc.run()
		events += sc.eng.Executed()
		if got := len(sc.sw.Results()); got != 250 {
			b.Fatalf("%d results, want 250", got)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSwarmChurn is the stream layer under node churn and a kill
// wave: chunk scheduling, stall accounting and core's leave/rejoin
// path on one timeline.
func BenchmarkSwarmChurn(b *testing.B) { benchSwarm(b, true) }

// BenchmarkSwarmSteady is the same batch on a quiet overlay: chunk
// scheduling alone.
func BenchmarkSwarmSteady(b *testing.B) { benchSwarm(b, false) }
