package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestEventTypeNames(t *testing.T) {
	cases := map[EventType]string{
		EvJoin:        "join",
		EvPrune:       "prune",
		EvSuspect:     "suspect",
		EvEvict:       "evict",
		EvDialBackoff: "dial-backoff",
		EvQueryStart:  "query-start",
		EvQueryHit:    "query-hit",
		EventType(0):  "unknown",
		EventType(99): "unknown",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Fatalf("EventType(%d).String() = %q, want %q", ty, got, want)
		}
	}
}

func TestEventLogRingSemantics(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.RecordAt(time.Now(), EvJoin, fmt.Sprintf("n%d", i), "", int64(i))
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", l.Len())
	}
	if l.next != 10 || l.Overwritten() != 6 {
		t.Fatalf("total/overwritten = %d/%d, want 10/6", l.next, l.Overwritten())
	}
	evs := l.Snapshot()
	// Newest-window semantics: events 6..9 retained, oldest first.
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Sim != LiveSim {
			t.Fatalf("live event carries Sim=%v, want %v", e.Sim, LiveSim)
		}
	}
}

func TestEventLogPartialFill(t *testing.T) {
	l := NewEventLog(8)
	l.RecordAt(time.Now(), EvSuspect, "a", "b", 1)
	l.RecordSim(3.5, EvEvict, "a", "b", 2)
	evs := l.Snapshot()
	if len(evs) != 2 || evs[0].Type != EvSuspect || evs[1].Type != EvEvict {
		t.Fatalf("snapshot = %+v", evs)
	}
	if evs[1].Sim != 3.5 {
		t.Fatalf("sim time = %v, want 3.5", evs[1].Sim)
	}
	if l.CountType(EvEvict) != 1 || l.CountType(EvQueryHit) != 0 {
		t.Fatal("CountType miscounts")
	}
}

func TestEventLogDefaultCapacity(t *testing.T) {
	l := NewEventLog(0)
	if got := cap(l.buf); got != DefaultEventLogSize {
		t.Fatalf("default capacity = %d, want %d", got, DefaultEventLogSize)
	}
}

func TestWriteJSONL(t *testing.T) {
	l := NewEventLog(16)
	l.RecordAt(time.Now(), EvQueryStart, "127.0.0.1:9", "", 4)
	l.RecordSim(7, EvQueryHit, "127.0.0.1:9", "127.0.0.1:10", 2)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	types := []string{"query-start", "query-hit"}
	for sc.Scan() {
		var doc map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if doc["type"] != types[lines] {
			t.Fatalf("line %d type = %v, want %s", lines, doc["type"], types[lines])
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}
