package sleepnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestConfigKnobsAreSet keeps configuration honest: every exported field of
// an exported ...Config (or ClassLimits) struct under internal/ is set by
// something — a command, an example, the benchmark or a test. A field that
// only its own withDefaults ever writes is a constant with a longer name;
// make it one. The check is syntactic and deliberately generous: a field
// counts as set by a keyed literal of its type (an unkeyed one sets them
// all), or by any assignment to a selector of its name in a file that is in,
// or imports, the struct's package.
func TestConfigKnobsAreSet(t *testing.T) {
	const module = "sleepnet"
	fset := token.NewFileSet()
	type typeKey struct{ dir, name string }
	fields := make(map[typeKey][]string) // config struct -> exported fields
	set := make(map[typeKey]map[string]bool)
	byField := make(map[string][]typeKey) // field name -> config structs having it

	var files []string
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
		if strings.HasSuffix(p, ".go") {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed := make(map[string]*ast.File, len(files))
	for _, p := range files {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed[p] = f
	}

	// Pass 1: the config structs.
	for _, p := range files {
		if !strings.HasPrefix(p, "internal/") || strings.HasSuffix(p, "_test.go") {
			continue
		}
		for _, decl := range parsed[p].Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || ts.Name.Name == "ClassLimits") {
					continue
				}
				k := typeKey{path.Dir(p), ts.Name.Name}
				set[k] = make(map[string]bool)
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields[k] = append(fields[k], n.Name)
							byField[n.Name] = append(byField[n.Name], k)
						}
					}
				}
			}
		}
	}
	if len(fields) < 10 {
		t.Fatalf("found only %d config structs under internal/: the walk is broken", len(fields))
	}

	// Pass 2: who sets what.
	for _, p := range files {
		f, dir := parsed[p], path.Dir(p)
		imports := map[string]string{} // local name -> directory
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(ip, module+"/") {
				continue
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(ip, module+"/")
		}
		sees := func(k typeKey) bool {
			if k.dir == dir {
				return true
			}
			for _, d := range imports {
				if d == k.dir {
					return true
				}
			}
			return false
		}
		resolve := func(e ast.Expr) (typeKey, bool) {
			switch e := e.(type) {
			case *ast.Ident:
				k := typeKey{dir, e.Name}
				_, ok := set[k]
				return k, ok
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok {
					k := typeKey{imports[x.Name], e.Sel.Name}
					_, ok := set[k]
					return k, ok
				}
			}
			return typeKey{}, false
		}
		var visit func(n ast.Node, own string) // own: the struct whose withDefaults we are inside
		visit = func(n ast.Node, own string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if own == "" && n.Name.Name == "withDefaults" && n.Recv != nil && n.Body != nil {
						recv := n.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							visit(n.Body, id.Name)
							return false
						}
					}
				case *ast.CompositeLit:
					k, ok := resolve(n.Type)
					if !ok {
						break
					}
					for _, el := range n.Elts {
						kv, keyed := el.(*ast.KeyValueExpr)
						if !keyed {
							for _, name := range fields[k] {
								set[k][name] = true
							}
							break
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[k][id.Name] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						for _, k := range byField[sel.Sel.Name] {
							if sees(k) && !(k.dir == dir && k.name == own) {
								set[k][sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		visit(f, "")
	}

	var unset []string
	for k, names := range fields {
		for _, name := range names {
			if !set[k][name] {
				unset = append(unset, k.dir+"."+k.name+"."+name)
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: nothing in the module sets this field; make it a constant", u)
	}
}
