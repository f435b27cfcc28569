package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// checkRepeat is the benchmark's own steadiness check, the same rule its
// acceptance is stated in: two sets of k untraced runs per workload, each
// run a child process with its own seed; for every end-to-end metric the
// spread of a set — the distance between its quartiles as a share of its
// median — must stay within the metric's bound (setup_s excepted), and
// the second set's median must not be worse than the first's by more
// than the bound. A spread above a third of the bound is flagged: that
// metric is too noisy to resolve a regression of the size it bounds.
func checkRepeat(selected []workloadDef, k int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bad := false
	for _, def := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < k; i++ {
				// The second set uses seeds the first never saw.
				runSeed := seed + int64(s*1000+i)
				res, err := runChild(self, def.Name, runSeed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", def.Name, runSeed, err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", def.Name, runSeed, res.Correct, res.Failed, res.Attempted)
					bad = true
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Printf("== %s: two sets of %d runs\n", def.Name, k)
		fmt.Printf("  %-12s %5s %12s %12s %12s %8s %8s %8s  %s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "drift", "verdict")
		for _, d := range endToEnd {
			var med [2]float64
			for s := range sets {
				q1, m, q3 := quartiles(sets[s][d.Name])
				med[s] = m
				spread := (q3 - q1) / m
				drift := 0.0
				if s == 1 {
					drift = (med[1] - med[0]) / med[0]
					if d.Better == "higher" {
						drift = -drift
					}
				}
				verdict := "ok"
				switch {
				case d.Name != "setup_s" && spread > d.Bound, drift > d.Bound:
					verdict = "FAIL"
					bad = true
				case d.Name != "setup_s" && spread > d.Bound/3:
					verdict = "noisy"
				}
				fmt.Printf("  %-12s %5d %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%%  %s\n",
					d.Name, s+1, q1, m, q3, 100*spread, 100*d.Bound, 100*drift, verdict)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// runChild runs one untraced measurement in a child process (peak RSS is
// per process) and parses the result line, the last line of its output.
func runChild(self, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("parse result line: %w", jerr)
	}
	return res, nil
}
