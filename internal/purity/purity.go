// Package purity holds a decision core and the driver that runs it in
// virtual time to what lets a seeded schedule replay: no clock read,
// sleep or timer, and no socket, file, buffered reader or lock. Each
// tier's TestStepReadsNoClockAndDoesNoIO names its own files.
package purity

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
)

// Check parses each file and reports through t each call of time's
// clock, sleep or timer functions and each import of net, net/http,
// bufio, os or sync. Unless goroutines is set it also reports go
// statements, channel types, sends, receives, selects and close calls,
// so every wait in the file is an event.
func Check(t testing.TB, goroutines bool, files ...string) {
	t.Helper()
	clock := []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"}
	for _, file := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "net", "net/http", "bufio", "os", "sync":
				t.Errorf("%s imports %s", file, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			bad := ""
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && slices.Contains(clock, n.Sel.Name) {
					bad = "time." + n.Sel.Name
				}
			case *ast.GoStmt, *ast.ChanType, *ast.SendStmt, *ast.SelectStmt:
				if !goroutines {
					bad = fmt.Sprintf("%T", n)
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !goroutines {
					bad = "a channel receive"
				}
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "close" && !goroutines {
					bad = "close"
				}
			}
			if bad != "" {
				t.Errorf("%s: %s", fset.Position(n.Pos()), bad)
			}
			return true
		})
	}
}
