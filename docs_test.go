package makalu

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// commandDocs are the documents whose commands TestDocumentedCommands
// holds to the current command-line surface.
var commandDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"results/README.md",
	".claude/skills/verify/SKILL.md",
}

// docCommand is one documented invocation of a makalu-<cli> binary.
type docCommand struct {
	doc  string
	cli  string // binary name, e.g. makalu-node
	args []string
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	cliName    = regexp.MustCompile(`\bmakalu-[a-z]+\b`)
	expIDs     = regexp.MustCompile(`experiment id: one of ([a-z0-9, -]+) \(`)
)

// codeSnippets returns a markdown document's code: each line of a
// fenced block (with trailing-backslash continuations joined) and each
// inline code span (which may wrap across lines).
func codeSnippets(text string) []string {
	var snippets []string
	var prose strings.Builder
	fenced := false
	pending := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
			continue
		}
		if cont, ok := strings.CutSuffix(strings.TrimRight(line, " "), `\`); ok {
			pending += cont + " "
			continue
		}
		snippets = append(snippets, pending+line)
		pending = ""
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		snippets = append(snippets, strings.ReplaceAll(m[1], "\n", " "))
	}
	return snippets
}

// parseCommands finds the makalu-<cli> invocations in one snippet: the
// binary (bare, ./ or ./cmd/ prefixed) followed by at least one flag,
// up to the end of the snippet or the first shell operator or comment.
func parseCommands(doc, snippet string) []docCommand {
	var out []docCommand
	fields := strings.Fields(snippet)
	for i, f := range fields {
		cli := filepath.Base(f)
		if cliName.FindString(cli) != cli {
			continue
		}
		var args []string
		for _, a := range fields[i+1:] {
			if strings.ContainsAny(a[:1], "|&;#>") {
				break
			}
			args = append(args, strings.Trim(a, `"'`))
		}
		if len(args) > 0 && strings.HasPrefix(args[0], "-") {
			out = append(out, docCommand{doc: doc, cli: cli, args: args})
		}
	}
	return out
}

// TestDocumentedCommands keeps the documents honest about the command
// line: every makalu-<cli> they name is a directory under cmd/, every
// example they run is one under examples/, every -exp value is an
// experiment id, and every documented command parses against the
// binary's current flag set. A command runs with -h appended: the flag
// package parses left to right and exits 0 on -h, but 2 on an unknown
// flag or a bad value, so nothing but flag parsing runs.
func TestDocumentedCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}

	usage, _ := exec.Command(filepath.Join(bin, "makalu-experiments"), "-h").CombinedOutput()
	m := expIDs.FindSubmatch(usage)
	if m == nil {
		t.Fatalf("makalu-experiments -h lists no experiment ids:\n%s", usage)
	}
	known := map[string]bool{}
	for _, id := range strings.Split(string(m[1]), ", ") {
		known[id] = true
	}

	var cmds []docCommand
	for _, doc := range commandDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cliName.FindAllString(string(data), -1) {
			if _, err := os.Stat(filepath.Join("cmd", name)); err != nil {
				t.Errorf("%s names %s, which is not a command under cmd/", doc, name)
			}
		}
		for _, snippet := range codeSnippets(string(data)) {
			for _, f := range strings.Fields(snippet) {
				if dir, ok := strings.CutPrefix(strings.TrimPrefix(f, "./"), "examples/"); ok && dir != "" {
					if _, err := os.Stat(filepath.Join("examples", strings.TrimSuffix(dir, "/"), "main.go")); err != nil {
						t.Errorf("%s runs %s, which is not an example", doc, f)
					}
				}
			}
			cmds = append(cmds, parseCommands(doc, snippet)...)
		}
	}
	if len(cmds) < 40 {
		t.Fatalf("found only %d documented commands; is the scanner broken?", len(cmds))
	}

	seen := map[string]bool{}
	for _, c := range cmds {
		line := c.cli + " " + strings.Join(c.args, " ")
		if seen[line] {
			continue
		}
		seen[line] = true
		for i, a := range c.args {
			id, ok := strings.CutPrefix(a, "-exp=")
			if a == "-exp" && i+1 < len(c.args) {
				id, ok = c.args[i+1], true
			}
			if ok && c.cli == "makalu-experiments" && !known[id] {
				t.Errorf("%s: %q: -exp %s is not an experiment id", c.doc, line, id)
			}
		}
		if _, err := os.Stat(filepath.Join(bin, c.cli)); err != nil {
			continue // reported above as a missing cmd/ directory
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(bin, c.cli), append(c.args, "-h")...).CombinedOutput()
		cancel()
		if err != nil || !strings.Contains(string(out), "Usage of") {
			first, _, _ := strings.Cut(string(out), "\n")
			t.Errorf("%s: %q does not parse (%v): %s", c.doc, line, err, first)
		}
	}
	t.Logf("%d documented commands parse", len(seen))
}
