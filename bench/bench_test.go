package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"makalu/internal/experiments"
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables this program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
}

// exactMetrics are counts of simulated or seeded work: two runs with the
// same seed must report them identically.
var exactMetrics = []string{
	"client.sent", "client.ok", "client.mismatch",
	"search.flood_mean_messages", "search.flood_mean_visited", "search.walk_success_ratio", "search.abf_success_ratio",
	"core.edges", "core.mean_degree", "graph.giant_fraction_after_fail",
	"sim.events", "sim.departures", "sim.rejoins",
	"stream.completed_ratio", "stream.goodput_p50_bytes_per_ms", "stream.re_requests",
	"bloom.index_mb",
}

// TestSmokeAllWorkloads runs every workload at smoke-test size, traced,
// twice with one seed: nothing may fail, every metric must be finite,
// every declared per-layer metric must be produced by some workload, and
// the exact counts must repeat.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := config{seed: 7, seconds: 0.25, trace: true, tiny: true}
	produced := map[string]bool{}
	for _, def := range workloads {
		var runs [2]*run
		for i := range runs {
			r := newRun(cfg)
			if err := execute(def, r); err != nil {
				t.Fatalf("%s: %v", def.Name, err)
			}
			runs[i] = r
			if r.failed != 0 || len(r.violations) != 0 {
				t.Errorf("%s: %d of %d failed: %v", def.Name, r.failed, r.attempted, r.violations)
			}
			if r.attempted < 1 || r.opCount < 1 {
				t.Errorf("%s: attempted %d, %d unit operations", def.Name, r.attempted, r.opCount)
			}
			for name, v := range r.endToEndValues() {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end %s = %v, want a positive finite value", def.Name, name, v)
				}
			}
			for name, v := range r.layer {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", def.Name, name, v)
				}
				produced[name] = true
			}
			res := r.result()
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%s: traced result has %d metrics, want all %d per-layer metrics", def.Name, len(res.Metrics), len(perLayer))
			}
		}
		for _, name := range exactMetrics {
			a, ok := runs[0].layer[name]
			if b := runs[1].layer[name]; ok && a != b {
				t.Errorf("%s: %s is %v then %v for the same seed", def.Name, name, a, b)
			}
		}
		if def.Name == "lookup_miss" || def.Name == "lookup_hit" {
			// The onion's self times telescope to the traced client p50;
			// that must be the same order as the untraced one. Loose: a
			// smoke test on a shared host is no place for a tight bound.
			if ratio := runs[1].layer["client.trace_overhead_ratio"]; ratio < 0.4 || ratio > 2.5 {
				t.Errorf("%s: traced client p50 is %.2fx the untraced p50", def.Name, ratio)
			}
		}
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", d.Name)
		}
	}
	for name := range produced {
		if !declared[name] {
			t.Errorf("a workload produces %s, which is not declared", name)
		}
	}
}

// TestChurnScenariosMatchRunStream holds the scenarios churn_stream
// assembles to the outcomes of experiments.RunStream for the same options.
func TestChurnScenariosMatchRunStream(t *testing.T) {
	r := newRun(config{seed: 3, seconds: 0.25, tiny: true})
	c := &churnWorkload{}
	if err := c.setup(r); err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunStream(c.opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, churn := range []bool{false, true} {
		sc, err := c.runScenario(r, churn)
		if err != nil {
			t.Fatal(err)
		}
		row := want.Rows[i]
		completed, reRequests := 0, 0
		for _, tr := range sc.results {
			if tr.Completed {
				completed++
			}
			reRequests += tr.ReRequests
		}
		if completed != row.Completed || reRequests != row.ReRequests ||
			sc.departures != row.Departures || sc.rejoins != row.Rejoins || sc.waved != row.KilledMidTransfer {
			t.Errorf("%s: completed %d re-requests %d departures %d rejoins %d waved %d; RunStream has %+v",
				row.Label, completed, reRequests, sc.departures, sc.rejoins, sc.waved, row)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}
