package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one lookup share Req; a
// span's Parent names the layer whose span for the same Req encloses it.
// All spans are recorded from this program, around the calls into each
// layer's exported functions; nothing inside the layers is instrumented.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the run began
	EndNs   int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start() { t.t0 = time.Now() }

func (t *tracer) add(name string, req int, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{name, req, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

// timed runs one top-level call of a workload's script, records its span
// and returns its duration in seconds. Checks between timed calls are not
// measured.
func (r *run) timed(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	r.tr.add(name, -1, "", start, end)
	d := end.Sub(start).Seconds()
	r.calls[name] = append(r.calls[name], d)
	return d
}

// wall is the workload's wall_s: the time of its script of timed calls.
// The repetitions of a call the script repeats are cut, in order, into at
// most sixteen consecutive groups, and the call counts at its typical
// group's mean (see typical) times its repetitions.
func (r *run) wall() float64 {
	total := 0.0
	for _, ds := range r.calls {
		mean := func(lo, hi int) float64 {
			sum := 0.0
			for _, d := range ds[lo:hi] {
				sum += d
			}
			return sum / float64(hi-lo)
		}
		total += typical(groupValues(len(ds), runSlices, mean)) * float64(len(ds))
	}
	return total
}

// table summarises the top-level spans (those with no request id): calls,
// total time and share of the workload's wall time.
func (t *tracer) table(wallS float64) string {
	type agg struct {
		n     int
		total float64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		if s.Req >= 0 {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += float64(s.EndNs-s.StartNs) / 1e9
	}
	if len(names) == 0 {
		return ""
	}
	sort.SliceStable(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %8s %12s %8s\n", "call", "calls", "total s", "share")
	for _, n := range names {
		a := byName[n]
		share := 0.0
		if wallS > 0 {
			share = a.total / wallS
		}
		fmt.Fprintf(&b, "  %-28s %8d %12.4f %7.1f%%\n", n, a.n, a.total, 100*share)
	}
	return b.String()
}

// write dumps the spans as JSON lines; an empty path writes nothing.
func (t *tracer) write(path, workload string) error {
	if path == "" || len(t.spans) == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close spans file: %w", err)
	}
	return nil
}
