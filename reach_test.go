//go:build reach

package makalu

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions that may stay linked into no
// program, one per line with the reason it is kept.
const reachAllowlist = "testdata/unlinked.txt"

// optionsLedger names every field of every exported …Config struct, one
// per line with the non-test file that sets it or the reason it stays
// settable.
const optionsLedger = "testdata/options.txt"

// programDirs hold the programs; their own functions are not checked.
var programDirs = map[string]bool{"cmd": true, "examples": true, "bench": true}

// typeParams matches one innermost bracket group; nm prints a generic
// instantiation as pkg.F[go.shape.int] or pkg.(*T[go.shape.int]).M.
var typeParams = regexp.MustCompile(`\[[^\[\]]*\]`)

// TestEveryFunctionIsLinked fails when a function declared outside the
// programs is linked into none of them and is not on the allowlist, or
// when an allowlist entry names a function that is now linked or gone.
// It builds the five commands, the five examples and bench/ with
// inlining off (-gcflags=all=-l), so an inlined call still leaves its
// callee's symbol, and reads their text symbols with go tool nm. It is
// behind the reach build tag because the cold build takes tens of
// seconds: go test -tags reach -run TestEveryFunctionIsLinked .
func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	goBuild := func(dir string, pkgs ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + "/"}, pkgs...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", pkgs, dir, err, out)
		}
	}
	goBuild(".", "./cmd/...", "./examples/...")
	goBuild("bench", ".")

	programs, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(programs) != 11 {
		t.Fatalf("built %d programs, want 11 (5 commands, 5 examples, bench)", len(programs))
	}
	linked := map[string]bool{}
	for _, p := range programs {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, p.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", p.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[len(f)-2] != "T" && f[len(f)-2] != "t") {
				continue
			}
			name := f[len(f)-1]
			for stripped := ""; stripped != name; {
				stripped, name = name, typeParams.ReplaceAllString(name, "")
			}
			linked[name] = true
		}
	}

	declared := declaredFuncs(t)
	allowed := readLedger(t, reachAllowlist)
	var unlinked []string
	for name, pos := range declared {
		if !linked[name] && allowed[name] == "" {
			unlinked = append(unlinked, pos+": "+name)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s is linked into no program: call it, delete it, or list it in %s with a reason", u, reachAllowlist)
	}
	for name := range allowed {
		switch {
		case declared[name] == "":
			t.Errorf("%s lists %s, which is not declared", reachAllowlist, name)
		case linked[name]:
			t.Errorf("%s lists %s, which is now linked: delete the entry", reachAllowlist, name)
		}
	}
	t.Logf("%d functions declared, %d allowlisted", len(declared), len(allowed))
}

// TestEveryOptionHasACaller fails when a field of an exported struct
// type whose name ends in Config, declared in a non-test file outside
// bench/, is not listed in the options ledger, or when an entry there
// names a field that is gone. Each entry gives the repo-relative
// non-test Go file that sets the field, which must exist and name it,
// or "deployment setting", or "test hook: " and the reason a knob that
// only a test sets stays settable, which review accepts or refuses:
// go test -tags reach -run TestEveryOptionHasACaller .
func TestEveryOptionHasACaller(t *testing.T) {
	declared := map[string]string{}
	parseSources(t, map[string]bool{"bench": true}, func(pkg string, fset *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						declared[pkg+"."+ts.Name.Name+"."+name.Name] = fset.Position(name.Pos()).String()
					}
					if len(field.Names) == 0 {
						t.Errorf("%s: %s embeds a field: list its promoted fields by hand", fset.Position(field.Pos()), ts.Name.Name)
					}
				}
			}
		}
	})
	listed := readLedger(t, optionsLedger)
	var missing []string
	for name, pos := range declared {
		if listed[name] == "" {
			missing = append(missing, pos+": "+name)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is settable but not in %s: give it a non-test caller, make it a constant, or list it with a reason", m, optionsLedger)
	}
	for name, why := range listed {
		if declared[name] == "" {
			t.Errorf("%s lists %s, which is not declared", optionsLedger, name)
			continue
		}
		if why == "deployment setting" {
			continue
		}
		if hook, reason, ok := strings.Cut(why, ":"); hook == "test hook" {
			if !ok || strings.TrimSpace(reason) == "" {
				t.Errorf("%s: %s: a test hook needs its reason: \"test hook: <why it stays settable>\"", optionsLedger, name)
			}
			continue
		}
		field := name[strings.LastIndex(name, ".")+1:]
		src, err := os.ReadFile(why)
		switch {
		case err != nil || !strings.HasSuffix(why, ".go") || strings.HasSuffix(why, "_test.go"):
			t.Errorf("%s: %s: %q is neither a non-test Go file nor a listed reason", optionsLedger, name, why)
		case !regexp.MustCompile(`\b` + field + `\b`).Match(src):
			t.Errorf("%s: %s: %s never names %s", optionsLedger, name, why, field)
		}
	}
	t.Logf("%d options declared", len(declared))
}

// parseSources parses every non-test Go file outside skip (top-level
// directories), testdata and hidden directories, and hands each to
// visit with its package's import path.
func parseSources(t *testing.T, skip map[string]bool, visit func(pkg string, fset *token.FileSet, file *ast.File)) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (skip[path] || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "makalu"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		visit(pkg, fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredFuncs returns every function and method declared in a non-test
// file outside the programs, under the name go tool nm gives it
// (makalu/pkg.F, makalu/pkg.T.M, makalu/pkg.(*T).M), mapped to its
// position. init functions are skipped; closures are not declarations.
func declaredFuncs(t *testing.T) map[string]string {
	decls := map[string]string{}
	parseSources(t, programDirs, func(pkg string, fset *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[name] = fset.Position(fn.Pos()).String()
		}
	})
	return decls
}

// receiverName renders a receiver type as nm does, type parameters
// dropped: T or (*T).
func receiverName(x ast.Expr) string {
	switch r := x.(type) {
	case *ast.StarExpr:
		return "(*" + receiverName(r.X) + ")"
	case *ast.IndexExpr:
		return receiverName(r.X)
	case *ast.IndexListExpr:
		return receiverName(r.X)
	case *ast.ParenExpr:
		return receiverName(r.X)
	case *ast.Ident:
		return r.Name
	}
	return "?"
}

// readLedger parses an allowlist or the options ledger: blank lines and
// lines starting with # are skipped; every other line is a name,
// whitespace, and the reason it is kept, which must not be empty.
func readLedger(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", path, n, name)
			reason = "?"
		}
		if allowed[name] != "" {
			t.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allowed[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
