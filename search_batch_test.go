package makalu

import "testing"

// The public batch wrappers ride on the internal BatchRunner, whose
// golden tests pin parallel == sequential per mechanism. Here we pin
// the same property through the public surface, plus basic sanity of
// the returned stats.

func TestPublicBatchWorkerInvariance(t *testing.T) {
	ov := newSmall(t, 300, 11)
	c, err := ov.PlaceContent(10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	seq := BatchOptions{Queries: 120, Workers: 1, Seed: 21}
	par := BatchOptions{Queries: 120, Workers: 8, Seed: 21}

	if a, b := ov.FloodBatch(c, 4, seq), ov.FloodBatch(c, 4, par); a != b {
		t.Fatalf("FloodBatch diverges across workers: %+v vs %+v", a, b)
	}
	if a, b := ov.RandomWalkBatch(c, 8, 128, seq), ov.RandomWalkBatch(c, 8, 128, par); a != b {
		t.Fatalf("RandomWalkBatch diverges across workers: %+v vs %+v", a, b)
	}
	if a, b := ov.ExpandingRingBatch(c, 5, seq), ov.ExpandingRingBatch(c, 5, par); a != b {
		t.Fatalf("ExpandingRingBatch diverges across workers: %+v vs %+v", a, b)
	}

	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ix.LookupBatch(25, seq), ix.LookupBatch(25, par); a != b {
		t.Fatalf("LookupBatch diverges across workers: %+v vs %+v", a, b)
	}
}

func TestPublicBatchStats(t *testing.T) {
	ov := newSmall(t, 300, 12)
	c, err := ov.PlaceContent(10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := ov.FloodBatch(c, 4, BatchOptions{Queries: 100, Seed: 3})
	if st.Queries != 100 {
		t.Fatalf("want 100 queries, got %d", st.Queries)
	}
	// 5% replication and TTL 4 on a 300-node overlay resolves nearly
	// everything; anything below 90% means the batch is broken, not
	// unlucky.
	if st.SuccessRate < 0.9 {
		t.Fatalf("implausible success rate %v", st.SuccessRate)
	}
	if st.MeanMessages <= 0 || st.MeanVisited <= 0 {
		t.Fatalf("empty cost stats: %+v", st)
	}
}

// Batch kernels outlive the batch (a free list beside the frozen
// graph), so consecutive batches on one overlay share scratch state for
// the first time. Nothing of one batch may show in the next: at every
// worker count, batch i must give the statistics a fresh overlay gives.
func TestBatchKernelReuseAcrossBatches(t *testing.T) {
	build := func() (*Overlay, *Content, *IdentifierIndex) {
		ov := newSmall(t, 300, 11)
		c, err := ov.PlaceContent(10, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := ov.BuildIdentifierIndex(c)
		if err != nil {
			t.Fatal(err)
		}
		return ov, c, ix
	}
	mechs := func(ov *Overlay, c *Content, ix *IdentifierIndex) []func(BatchOptions) BatchStats {
		return []func(BatchOptions) BatchStats{
			func(o BatchOptions) BatchStats { return ov.FloodBatch(c, 4, o) },
			func(o BatchOptions) BatchStats { return ov.RandomWalkBatch(c, 8, 128, o) },
			func(o BatchOptions) BatchStats { return ov.ExpandingRingBatch(c, 5, o) },
			func(o BatchOptions) BatchStats { return ix.LookupBatch(25, o) },
		}
	}
	reused := mechs(build())
	for i := 0; i < 50; i++ {
		// The reference runs batch i alone on kernels nobody used.
		fresh := mechs(build())
		for m := range reused {
			want := fresh[m](BatchOptions{Queries: 40, Workers: 1, Seed: int64(i)})
			for _, workers := range []int{1, 0, 8} {
				if got := reused[m](BatchOptions{Queries: 40, Workers: workers, Seed: int64(i)}); got != want {
					t.Fatalf("batch %d mechanism %d workers %d: %+v on reused kernels, %+v fresh", i, m, workers, got, want)
				}
			}
		}
	}
}

// Concurrent batches draw from one free list; run under -race.
func TestBatchKernelPoolConcurrent(t *testing.T) {
	ov := newSmall(t, 300, 11)
	c, err := ov.PlaceContent(10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	opt := BatchOptions{Queries: 60, Workers: 3, Seed: 5}
	wantFlood, wantLookup := ov.FloodBatch(c, 4, opt), ix.LookupBatch(25, opt)
	done := make(chan string, 8)
	for g := 0; g < 8; g++ {
		go func(flood bool) {
			for i := 0; i < 20; i++ {
				if flood && ov.FloodBatch(c, 4, opt) != wantFlood {
					done <- "FloodBatch statistics changed under concurrent batches"
					return
				}
				if !flood && ix.LookupBatch(25, opt) != wantLookup {
					done <- "LookupBatch statistics changed under concurrent batches"
					return
				}
			}
			done <- ""
		}(g%2 == 0)
	}
	for g := 0; g < 8; g++ {
		if msg := <-done; msg != "" {
			t.Error(msg)
		}
	}
}

// A mutation drops the frozen graph and the kernels sized to it
// together: the next batch must run on the new snapshot with kernels
// of its size, and an index built before keeps its own.
func TestBatchKernelsDroppedWithSnapshot(t *testing.T) {
	run := func(warm bool) (BatchStats, BatchStats) {
		ov, err := New(Config{Nodes: 300, Seed: 11, Headroom: 2})
		if err != nil {
			t.Fatal(err)
		}
		c, err := ov.PlaceContent(10, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := ov.BuildIdentifierIndex(c)
		if err != nil {
			t.Fatal(err)
		}
		opt := BatchOptions{Queries: 200, Seed: 9}
		before := ix.LookupBatch(25, opt)
		if warm {
			ov.FloodBatch(c, 4, opt)
			ov.RandomWalkBatch(c, 8, 128, opt)
		}
		old := ov.kernels
		ov.AddNode()
		if ov.kernels != nil {
			t.Fatal("AddNode kept the kernel pool of the snapshot it dropped")
		}
		flood := ov.FloodBatch(c, 4, opt)
		if ov.kernels == nil || ov.kernels == old {
			t.Fatal("batch after AddNode did not get a pool over the new snapshot")
		}
		if after := ix.LookupBatch(25, opt); after != before {
			t.Fatalf("index over the old snapshot changed its answers after AddNode: %+v vs %+v", after, before)
		}
		return flood, ov.RandomWalkBatch(c, 8, 128, opt)
	}
	coldFlood, coldWalk := run(false)
	warmFlood, warmWalk := run(true)
	if coldFlood != warmFlood || coldWalk != warmWalk {
		t.Fatalf("kernels warmed on the old snapshot leaked into the new one: flood %+v vs %+v, walk %+v vs %+v",
			warmFlood, coldFlood, warmWalk, coldWalk)
	}
}
