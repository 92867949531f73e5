package kstm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// optionResults are the result types that make an internal/core function an
// option constructor.
var optionResults = []string{"Option", "SplitOption", "AdaptiveOption"}

// TestOptionSurface keeps the executor's options earning their keep: every
// option constructor internal/core exports must be called, as kstm.<Name> or
// core.<Name>, from non-test code other than internal/core itself, the
// kstm.go facade, the examples and test data. The benchmark module counts as
// a caller. An option nothing outside those sets has no caller that needs a
// value other than the default, so it goes (DESIGN.md §3.1).
func TestOptionSurface(t *testing.T) {
	ctors := optionConstructors(t, filepath.Join("internal", "core"))
	if len(ctors) == 0 {
		t.Fatal("found no option constructors in internal/core")
	}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "examples") ||
				path == filepath.Join("internal", "core") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == "kstm.go" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "kstm" || x.Name == "core") {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, name := range ctors {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Fatalf("%d of %d option constructors have no caller outside internal/core, kstm.go, examples and tests: %s",
			len(unused), len(ctors), strings.Join(unused, ", "))
	}
	t.Logf("%d option constructors, each with a production caller", len(ctors))
}

// optionConstructors lists the exported, receiver-less functions in dir's
// non-test files whose one result is an option type, sorted.
func optionConstructors(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			res := fn.Type.Results
			if res == nil || len(res.List) != 1 {
				continue
			}
			if id, ok := res.List[0].Type.(*ast.Ident); ok && slices.Contains(optionResults, id.Name) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	slices.Sort(names)
	return names
}
