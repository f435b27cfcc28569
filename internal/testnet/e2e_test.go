package testnet

import (
	"os"
	"testing"
	"time"
)

// TestHarnessEndToEnd runs the whole orchestration on a miniature
// network: 8 real makalu-node processes, a deny-list partition, a
// 25% SIGKILL wave, and driver-side queries. Assertions stay lenient
// (this is a plumbing test, not a performance gate — the CI smoke
// owns the numeric acceptance).
func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bin, err := BuildNodeBinary(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logf func(string, ...any)
	if testing.Verbose() {
		logf = t.Logf
	}
	cfg := Config{
		Nodes:        8,
		Capacity:     4,
		Seed:         1,
		KillFraction: 0.25,
		Bin:          bin,
		Dir:          dir,
		// Offset by PID so parallel test invocations on one machine
		// don't collide on listen ports.
		BasePort:          23000 + (os.Getpid()%200)*40,
		ManageInterval:    150 * time.Millisecond,
		ConvergeTimeout:   45 * time.Second,
		SettleTimeout:     30 * time.Second,
		Queries:           8,
		PartitionFraction: 0.5,
		PartitionHold:     3 * time.Second,
		Logf:              logf,
	}
	row, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if row.Nodes != 8 || row.Capacity != 4 || row.Seed != 1 {
		t.Fatalf("row identity wrong: %+v", row)
	}
	if row.SimMeanDegree <= 0 {
		t.Fatalf("no simulator reference recorded: %+v", row)
	}
	if row.Degrees.Sampled < 7 {
		t.Fatalf("converge scrape saw only %d of 8 nodes", row.Degrees.Sampled)
	}
	if row.Degrees.Mean <= 0 {
		t.Fatal("mean degree never rose above zero")
	}

	if row.Partition == nil {
		t.Fatal("partition phase requested but not recorded")
	}
	if row.Partition.GroupA+row.Partition.GroupB != 8 {
		t.Fatalf("partition groups do not cover the net: %+v", row.Partition)
	}
	if !row.Partition.PartitionedOK {
		t.Errorf("deny-list cut never drained cross edges: %+v", row.Partition)
	}

	if row.Killed != 2 || row.Survivors != 6 {
		t.Fatalf("kill wave killed %d / left %d, want 2 / 6", row.Killed, row.Survivors)
	}
	if row.KillScheduleHash == "" {
		t.Fatal("kill schedule hash missing")
	}
	// Reproducibility: the recorded hash must match a recomputation
	// from the same (seed, nodes, fraction).
	if want := ScheduleHash(KillWave(1, 8, 0.25)); row.KillScheduleHash != want {
		t.Fatalf("recorded kill hash %s != derived %s", row.KillScheduleHash, want)
	}
	if row.EvictWithinWindow < 0.5 {
		t.Errorf("only %.0f%% of survivors evicted dead neighbors within the window",
			row.EvictWithinWindow*100)
	}
	if row.PostKillDegrees.Sampled == 0 {
		t.Fatal("no post-kill degree scrape")
	}

	if row.QuerySuccessPre > 0 && row.QueryPre.Count == 0 {
		t.Fatalf("inconsistent pre-kill query stats: %+v", row)
	}
	if row.QuerySuccessPre <= 0 {
		t.Errorf("no pre-kill query succeeded: %+v", row.QueryPre)
	}
	if row.WallSeconds <= 0 {
		t.Fatal("wall time not recorded")
	}
}
