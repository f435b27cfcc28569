package experiments

import (
	"reflect"
	"testing"
)

// TestRunStreamGolden is the streaming acceptance check: 24 chunked
// downloads on a quiet 1000-node overlay, then the same batch under
// churn plus a kill wave that removes an active source from in-flight
// transfers. The sweep is deterministic at equal seed, so the outcome
// is pinned exactly; the structural floor is asserted separately so
// that an intentional scheduler change fails the pinned line and not
// the property.
func TestRunStreamGolden(t *testing.T) {
	opt := DefaultStreamOptions(1000, 1)
	res, err := RunStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Label != "steady" || res.Rows[1].Label != "churn" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	steady, churn := res.Rows[0], res.Rows[1]

	// The property: the kill wave struck mid-transfer, source death
	// exercised recovery, and transfers still completed.
	if churn.KilledMidTransfer < 1 {
		t.Error("churn: the kill wave removed no active source mid-transfer")
	}
	if churn.ReRequests < 1 {
		t.Error("churn: no chunk was re-requested, so source death never exercised recovery")
	}
	if churn.Completed < 1 {
		t.Error("churn: no transfer completed")
	}

	// The pinned outcome at seed 1.
	if steady.Completed != 24 || steady.Failed != 0 || steady.CompletedFraction != 1 {
		t.Errorf("steady: completed %d failed %d fraction %v, want 24 0 1",
			steady.Completed, steady.Failed, steady.CompletedFraction)
	}
	if steady.ReRequests != 0 || steady.Timeouts != 0 {
		t.Errorf("steady: %d re-requests, %d timeouts on a quiet overlay, want 0 0",
			steady.ReRequests, steady.Timeouts)
	}
	if churn.Completed != 24 || churn.Failed != 0 {
		t.Errorf("churn: completed %d failed %d, want 24 0", churn.Completed, churn.Failed)
	}
	if churn.KilledMidTransfer != 12 {
		t.Errorf("churn: KilledMidTransfer %d, want 12", churn.KilledMidTransfer)
	}
	if churn.ReRequests != 105 {
		t.Errorf("churn: ReRequests %d, want 105", churn.ReRequests)
	}
	if churn.Departures != 1265 || churn.Rejoins != 1027 {
		t.Errorf("churn: %d departures %d rejoins, want 1265 1027", churn.Departures, churn.Rejoins)
	}
	if churn.GoodputMean <= 0 {
		t.Errorf("churn: mean goodput %v, want > 0", churn.GoodputMean)
	}

	again, err := RunStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("two runs at equal seed differ:\n%+v\n%+v", res, again)
	}
}
