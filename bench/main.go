// Command bench is the repository's one benchmark: six workloads that
// between them exercise every layer of the stack, each reporting the same
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one, with the answers checked. See README.md.
//
//	bash bench/run.sh --workload lookup_miss --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark scenario. setup builds everything that
// precedes the first timed operation and may be called on several fresh
// values in one process (setup_s is the median); measure runs the fixed
// script on the value set up last; close releases sockets and goroutines.
type workload interface {
	setup(r *run) error
	measure(r *run) error
	close()
}

// config is what the command line selects.
type config struct {
	seed    int64
	seconds float64 // scales every operation count; the counts are fixed for a given value
	trace   bool
	tiny    bool // smoke-test sizes (n=2000)
	spans   string
}

// run carries one workload execution's inputs and collects its outputs.
type run struct {
	config
	sz sizes

	attempted  int
	failed     int
	violations []string

	setupS   float64
	opP50Us  float64
	opP99Us  float64
	calls    map[string][]float64 // seconds of each timed call of the script, by call name
	opCount  int
	layer    map[string]float64 // per-layer metrics by name
	tr       tracer
	onionTbl string
}

// scaled turns a per-second operation rate into this run's fixed count.
func (r *run) scaled(perSecond float64) int {
	return max(1, int(perSecond*r.seconds+0.5))
}

// violate records a failed correctness check; any violation makes the run
// incorrect and the exit code non-zero.
func (r *run) violate(format string, args ...any) {
	r.failed++
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// setOps records the unit-operation latencies (ns, in operation order).
func (r *run) setOps(latNs []int64) {
	r.opCount = len(latNs)
	r.opP50Us = slicePercentile(latNs, 0.50) / 1e3
	r.opP99Us = slicePercentile(latNs, 0.99) / 1e3
	r.layer["client.op_p50_us"], r.layer["client.op_p99_us"] = r.opP50Us, r.opP99Us
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, which keeps one slow page-fault storm out of the metric.
const setupReps = 3

// execute runs one workload and fills r.
func execute(def workloadDef, r *run) error {
	reps := setupReps
	if r.trace {
		reps = 1
	}
	var w workload
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		w = def.new()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	sort.Float64s(setups)
	r.setupS = setups[len(setups)/2]
	runtime.GC()
	if err := w.measure(r); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	r.layer["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	return nil
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object the harness reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *run) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":     r.setupS,
		"wall_s":      r.wall(),
		"peak_rss_mb": peakRSSMB(),
	}
}

// result selects the metric set the --trace value asks for.
func (r *run) result() result {
	res := result{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if r.trace {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{r.layer[d.Name], d.Unit}
		}
		return res
	}
	vals := r.endToEndValues()
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return res
}

// environment is recorded with every report.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GitRev: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.GitRev = s.Value
			}
		}
	}
	return env
}

// print writes the human-readable report: every metric by name with its
// unit, the layer table of a traced run, and any violated check.
func (r *run) print(name string) {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%v  attempted=%d failed=%d  ops=%d\n",
		name, r.seed, r.seconds, r.trace, r.attempted, r.failed, r.opCount)
	vals := r.endToEndValues()
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.Name]; ok {
			fmt.Printf("  %-34s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if r.trace {
		if r.onionTbl != "" {
			fmt.Print(r.onionTbl)
		}
		fmt.Print(r.tr.table(r.wall()))
	}
	for _, v := range r.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// report is the -json document.
type report struct {
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "every input is generated from this seed")
		seconds  = flag.Float64("seconds", 8, "run length: every operation count is this times a fixed per-second rate")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and the layer table")
		tiny     = flag.Bool("tiny", false, "smoke-test sizes (n=2000 overlays)")
		jsonOut  = flag.String("json", "", "also write the report as JSON to this file")
		spansOut = flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
		repeat   = flag.Int("check-repeat", 0, "run two sets of K runs per workload in child processes and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	var selected []workloadDef
	for _, def := range workloads {
		if *name == "all" || *name == def.Name {
			selected = append(selected, def)
		}
	}
	if len(selected) == 0 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q or non-positive -seconds\n", *name)
		return 2
	}
	if *repeat > 0 {
		return checkRepeat(selected, *repeat, *seed, *seconds)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, tiny: *tiny, spans: *spansOut}
	env := currentEnvironment()
	fmt.Printf("makalu bench: %s %s/%s num_cpu=%d gomaxprocs=%d git_rev=%s\n",
		env.GoVersion, env.OS, env.Arch, env.NumCPU, env.GoMaxProcs, env.GitRev)

	rep := report{Env: env, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]result{}}
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range selected {
		r := newRun(cfg)
		if err := execute(def, r); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", def.Name, err)
			return 1
		}
		r.print(def.Name)
		if err := r.tr.write(cfg.spans, def.Name); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", def.Name, err)
			return 1
		}
		res := r.result()
		rep.Workloads[def.Name] = res
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = def.Name + ":" + k
			}
			combined.Metrics[k] = v
		}
	}
	if *jsonOut != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			return 1
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !combined.Correct {
		return 1
	}
	return 0
}

func newRun(cfg config) *run {
	r := &run{config: cfg, sz: fullSizes, layer: map[string]float64{}, calls: map[string][]float64{}}
	if cfg.tiny {
		r.sz = tinySizes
	}
	r.tr.start()
	return r
}
