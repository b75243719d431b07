package blobseer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryHandledMethodHasACaller: an RPC method a server registers is
// surface, a decoder of bytes off the wire that must be fuzzed and
// given a retry class. So every rpc.M method passed to a server's
// Handle must also be passed to some other call outside tests: a Call,
// a CallAddr, or a helper that makes one (the DHT client's fan-out).
// Methods are known by the name of the variable rpc.M initializes,
// which must be unique across the module.
func TestEveryHandledMethodHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]int{}           // rpc.M variables
	handled := map[string]token.Position{} // first arguments of Handle calls
	passed := map[string]bool{}            // arguments of any other call
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // a nested module, fixtures, or hidden
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if call, ok := v.(*ast.CallExpr); ok && refName(call.Fun) == "M" && i < len(n.Names) {
						declared[n.Names[i].Name]++
					}
				}
			case *ast.CallExpr:
				if refName(n.Fun) == "Handle" && len(n.Args) == 2 {
					handled[refName(n.Args[0])] = fset.Position(n.Pos())
					return true
				}
				for _, a := range n.Args {
					passed[refName(a)] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(handled) == 0 {
		t.Fatal("found no Handle registrations: the walk missed the tree")
	}
	for name, at := range handled {
		if declared[name] > 1 {
			t.Errorf("%s: rpc.M variable %s is declared %d times; this check tells methods apart by name", at, name, declared[name])
		} else if declared[name] == 1 && !passed[name] {
			t.Errorf("%s: %s is served but no non-test code calls it", at, name)
		}
	}
}

// refName is the name e refers to, as x or pkg.x (or a method, v.x),
// or "".
func refName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
