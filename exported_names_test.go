package sleepnet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The three reasons an exported name under internal/ may have no non-test
// caller. Anything else with no caller is deleted or unexported.
const (
	// testOracle: a reference implementation tests compare the real one to.
	testOracle = "test oracle"
	// testHarness: fault drivers that tests of other packages call.
	testHarness = "cross-package test harness"
	// observedState: state a correctness test has to read or set.
	observedState = "state a correctness test observes"
)

// exportedWithoutCallers is the whole list of exceptions, keyed by package
// path under internal/, then type for a method, then name.
var exportedWithoutCallers = map[string]string{
	"dsp.DFT":                        testOracle,
	"rdns.ClassifyBlock":             testOracle,
	"rdns.Synthesizer.BlockNames":    testOracle,
	"faults.ChaosPlan.Fired":         testHarness,
	"faults.CorruptFileTail":         testHarness,
	"faults.TruncateFileTail":        testHarness,
	"faults.SlowLoris":               testHarness,
	"faults.Malformed":               testHarness,
	"faults.ConnChurn":               testHarness,
	"faults.Flood":                   testHarness,
	"faults.Injector.Totals":         observedState,
	"metrics.Snapshot.Deterministic": observedState,
	"dsp.SetPlanCacheLimit":          observedState,
	"core.EstimatorFromState":        observedState,
}

// TestExportedNamesHaveCallers keeps the module the size of what a binary
// reaches: every exported top-level func, method, type, const and var under
// internal/ is named by some non-test Go file other than at its own
// declaration, or is on the list above with its reason. The check is
// syntactic and deliberately generous — an identifier of the same name
// anywhere in the module's non-test code counts, whatever it resolves to —
// so it catches the helper nothing calls, not every dead path (the two
// RetainedBytes methods, which only tests read, pass on each other's name).
// Methods of unexported types are left alone: they exist to satisfy
// interfaces. So are MarshalJSON and UnmarshalJSON, which encoding/json
// finds by reflection.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	declared := make(map[string]int) // name -> declarations of it under internal/
	named := make(map[string]int)    // name -> identifiers spelling it in non-test code

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				named[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(p, "internal/") {
			return nil
		}
		pkg := strings.TrimPrefix(path.Dir(p), "internal/")
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() || (recv != "" && (id.Name == "MarshalJSON" || id.Name == "UnmarshalJSON")) {
				return
			}
			key := pkg + "." + id.Name
			if recv != "" {
				key = pkg + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key, fset.Position(id.Pos())})
			declared[id.Name]++
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					id, ok := typ.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue
					}
					recv = id.Name
				}
				add(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 500 {
		t.Fatalf("found only %d exported declarations under internal/: the walk is broken", len(decls))
	}

	seen := make(map[string]bool)
	var problems []string
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		called := named[name] > declared[name]
		_, listed := exportedWithoutCallers[d.key]
		switch {
		case !called && !listed:
			problems = append(problems, fmt.Sprintf("%s (%s:%d): no non-test file names it", d.key, d.pos.Filename, d.pos.Line))
		case called && listed:
			problems = append(problems, fmt.Sprintf("%s (%s:%d): non-test code names it now; take it off exportedWithoutCallers", d.key, d.pos.Filename, d.pos.Line))
		}
	}
	for key := range exportedWithoutCallers {
		if !seen[key] {
			problems = append(problems, key+": on exportedWithoutCallers but not declared under internal/")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) > 0 {
		t.Log("for each name: delete it (and the tests only it had), unexport it if its own package uses it, " +
			"or add it to exportedWithoutCallers in exported_names_test.go with one of the three reasons there")
	}
}
