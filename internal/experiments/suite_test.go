package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-pin testdata/suite.golden from this run")

const suiteGolden = "testdata/suite.golden"

// suiteOpts is `makalu-experiments -exp all -n 400 -queries 30` at its
// default seed and -sources.
func suiteOpts(workers int) Options {
	return Options{N: 400, Queries: 30, Seed: 1, Workers: workers}
}

// TestSuiteGolden pins every table `-exp all -n 400 -queries 30`
// prints: a SHA-256 prefix of each experiment's rendered table, which
// must come out the same sequentially and at the default worker count.
// Run with -update to re-pin after a change meant to move a table, and
// say in the change which hashes moved and why.
func TestSuiteGolden(t *testing.T) {
	pinned, err := readGolden(suiteGolden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range Suite(500) {
		var first string
		for _, workers := range []int{1, 0} {
			res, err := e.Run(suiteOpts(workers))
			if err != nil {
				t.Fatalf("%s at workers %d: %v", e.ID, workers, err)
			}
			sum := sha256.Sum256([]byte(res.Render()))
			got := hex.EncodeToString(sum[:8])
			if workers == 1 {
				first = got
				lines = append(lines, e.ID+" "+got)
			} else if got != first {
				t.Errorf("%s: table hash %s at workers 0, %s at workers 1", e.ID, got, first)
			}
			if !*update && got != pinned[e.ID] {
				t.Errorf("%s at workers %d: table hash %s, pinned %q", e.ID, workers, got, pinned[e.ID])
			}
		}
	}
	if !*update {
		if len(pinned) != len(lines) {
			t.Errorf("%s pins %d experiments, the suite has %d", suiteGolden, len(pinned), len(lines))
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(suiteGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(suiteGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden parses "id hash" lines.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, hash, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		m[id] = hash
	}
	return m, sc.Err()
}
