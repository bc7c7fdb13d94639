package sleepnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// citation matches a test or benchmark named in an annotation, with an
// optional /subtest suffix.
var citation = regexp.MustCompile(`\b((?:Test|Benchmark)[A-Z0-9_]\w*)(?:/([\w-]+))?`)

// TestAnnotationCitationsResolve holds the //lint:hotpath and
// //lint:aliases justifications to the tests they cite: each Test… or
// Benchmark… name must be a function in some _test.go file of the module,
// and a /sub suffix must name a t.Run (or b.Run) subtest inside it. The
// hot-path allocation budgets rest on those citations, and stale ones have
// had to be found and fixed by hand.
func TestAnnotationCitationsResolve(t *testing.T) {
	fset := token.NewFileSet()
	subtests := make(map[string]map[string]bool) // test func -> its subtest names
	type cite struct {
		fn, sub string
		pos     token.Position
	}
	var cites []cite

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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Body == nil {
					continue
				}
				// Test names repeat across packages; a citation may mean any.
				if subtests[fd.Name.Name] == nil {
					subtests[fd.Name.Name] = make(map[string]bool)
				}
				for sub := range subtestNames(fd.Body) {
					subtests[fd.Name.Name][sub] = true
				}
			}
			return nil
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:hotpath") && !strings.HasPrefix(c.Text, "//lint:aliases") {
					continue
				}
				for _, m := range citation.FindAllStringSubmatch(c.Text, -1) {
					cites = append(cites, cite{m[1], m[2], fset.Position(c.Pos())})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cites) < 5 {
		t.Fatalf("found only %d citations in annotations: the walk is broken", len(cites))
	}

	var problems []string
	for _, c := range cites {
		subs, ok := subtests[c.fn]
		switch {
		case !ok:
			problems = append(problems, c.pos.String()+": cites "+c.fn+", which no _test.go file declares")
		case c.sub != "" && !subs[c.sub]:
			problems = append(problems, c.pos.String()+": cites "+c.fn+"/"+c.sub+", but "+c.fn+" runs no subtest "+c.sub)
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// subtestNames returns the names a test body may pass to t.Run, spaced the
// way go test prints them: literal first arguments of .Run calls and, when
// a name comes from a variable (a table-driven test), every string literal
// in the body as a candidate.
func subtestNames(body *ast.BlockStmt) map[string]bool {
	names := make(map[string]bool)
	var literals []string
	fromTable := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(n.Value); err == nil {
				literals = append(literals, s)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Run" || len(n.Args) != 2 {
				return true
			}
			if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					names[s] = true
				}
			} else {
				fromTable = true
			}
		}
		return true
	})
	if fromTable {
		for _, s := range literals {
			names[s] = true
		}
	}
	spaced := make(map[string]bool, len(names))
	for s := range names {
		spaced[strings.ReplaceAll(s, " ", "_")] = true
	}
	return spaced
}
