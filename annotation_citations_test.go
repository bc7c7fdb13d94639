package sleepnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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

// selector matches a -run= or -fuzz= flag of a go test command line,
// quoted or not.
var selector = regexp.MustCompile(`-(?:run|fuzz)=(?:'([^']*)'|"([^"]*)"|(\S+))`)

// plainTest matches one anchor-free alternative of such a pattern.
var plainTest = regexp.MustCompile(`^(?:Test|Fuzz)\w+$`)

// TestAnnotationCitationsResolve holds the //lint:hotpath and
// //lint:aliases justifications to the tests they cite: each Test… or
// Benchmark… name must be a function in some _test.go file of the module,
// and a /sub suffix must name a t.Run (or b.Run) subtest inside it. The
// hot-path allocation budgets rest on those citations, and stale ones have
// had to be found and fixed by hand.
//
// The Makefile and the CI workflows cite tests too: every name a -run= or
// -fuzz= pattern selects must be a Test… or Fuzz… function of the package
// the command line names. go test runs whatever still matches and passes,
// so a renamed chaos test would otherwise drop out of its gate silently.
func TestAnnotationCitationsResolve(t *testing.T) {
	fset := token.NewFileSet()
	subtests := make(map[string]map[string]bool) // test func -> its subtest names
	declared := make(map[string]map[string]bool) // package dir -> its test funcs
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
				dir := filepath.ToSlash(filepath.Dir(p))
				if declared[dir] == nil {
					declared[dir] = make(map[string]bool)
				}
				declared[dir][fd.Name.Name] = true
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

	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	selected := 0
	for _, file := range append([]string{"Makefile"}, workflows...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			at := file + ":" + strconv.Itoa(i+1)
			for _, m := range selector.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1]+m[2]+m[3], "|") {
					name = strings.TrimRight(strings.TrimLeft(name, "^"), "$")
					if name == "" {
						continue // -run=^$: run no test
					}
					selected++
					if !plainTest.MatchString(name) {
						problems = append(problems, at+": selects "+strconv.Quote(name)+", which is not a plain Test… or Fuzz… name")
						continue
					}
					if !selectedIn(declared, packageDirs(line), name) {
						problems = append(problems, at+": selects "+name+", which no test file of "+strings.Join(packageDirs(line), ", ")+" declares")
					}
				}
			}
		}
	}
	if selected < 10 {
		t.Fatalf("found only %d tests selected by name in the Makefile and CI: the parse is broken", selected)
	}

	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// packageDirs returns the package directories a go test command line
// names (./x/y → x/y), or the module root's "..." when it names ./... or
// nothing.
func packageDirs(line string) []string {
	var dirs []string
	for _, f := range strings.Fields(line) {
		if !strings.HasPrefix(f, "./") {
			continue
		}
		if f == "./..." {
			return []string{"..."}
		}
		dirs = append(dirs, strings.TrimPrefix(f, "./"))
	}
	if len(dirs) == 0 {
		return []string{"..."}
	}
	return dirs
}

// selectedIn reports whether one of dirs declares the test function name;
// "..." stands for every directory of the module.
func selectedIn(declared map[string]map[string]bool, dirs []string, name string) bool {
	for _, dir := range dirs {
		for d, names := range declared {
			if (dir == "..." || d == dir) && names[name] {
				return true
			}
		}
	}
	return false
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
