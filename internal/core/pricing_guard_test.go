package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorePricesNothing holds the planner to reading the profile's
// priced table: no non-test file of this package calls a primitive that
// looks a layer's time or a tensor's size up, or prices a transfer.
// What a unit or a cut costs is profile.PriceUnits' to say, so a second
// price for it cannot drift from the first.
func TestCorePricesNothing(t *testing.T) {
	primitives := map[string]bool{
		"LayerTimeMs": true, "NodesTimeMs": true, "TotalTimeMs": true,
		"TxMs": true, "OutBytes": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && primitives[sel.Sel.Name] {
				t.Errorf("%s: calls %s; read the price from the profile's table", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
