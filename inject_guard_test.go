package decos

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

// TestFaultsOnlyAsData keeps every fault a pack.FaultSpec: outside
// internal/pack (whose FaultSpec.Apply is the one injection path) and
// internal/faults (the primitives themselves), no non-test Go file may
// name an injector primitive. The primitives are read from
// internal/faults' source: every exported *Injector method that returns
// an *Activation. A new primitive is covered without editing this test;
// the ledger and checkpoint accessors (Ledger, Cluster, Reset,
// SetReconstructing, Code) return no activation and stay usable.
func TestFaultsOnlyAsData(t *testing.T) {
	fset := token.NewFileSet()
	primitives := map[string]bool{}
	entries, err := os.ReadDir("internal/faults")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !nonTestGo(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join("internal/faults", e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() &&
				isPtrTo(fn.Recv, "Injector") && isPtrTo(fn.Type.Results, "Activation") {
				primitives[fn.Name.Name] = true
			}
		}
	}
	for _, name := range []string{"SEU", "ConnectorTx", "Bohrbug"} {
		if !primitives[name] {
			t.Fatalf("primitive %s not found in internal/faults (found %v)", name, primitives)
		}
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == filepath.Join("internal", "pack") || path == filepath.Join("internal", "faults") ||
				name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !nonTestGo(d.Name()) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && primitives[sel.Sel.Name] {
				t.Errorf("%s: names injector primitive %s; put the fault in a plan or manifest as a pack.FaultSpec",
					fset.Position(sel.Sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func nonTestGo(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// isPtrTo reports whether fields is exactly one *name.
func isPtrTo(fields *ast.FieldList, name string) bool {
	if fields == nil || len(fields.List) != 1 || len(fields.List[0].Names) > 1 {
		return false
	}
	star, ok := fields.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == name
}
