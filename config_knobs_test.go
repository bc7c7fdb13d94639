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

// fake: a seam through which tests of another package substitute a fake.
const fake = "test fake"

// knobsWithoutCallers is the whole list of exported config fields nothing but
// tests sets, keyed by package path under internal/, then struct, then field;
// a key without the field stands for every field of the struct.
var knobsWithoutCallers = map[string]string{
	"monitor.Config.Chaos": fake,        // serve's tests kill shards under a live engine
	"faults.FloodConfig":   testHarness, // configures faults.Flood
	// No world plants gateway answers, but it is the one source of the
	// prober's host-unreachable outcome, which the replay, WAL and
	// batch-equivalence tests drive.
	"netsim.Block.GatewayUnreachableProb": fake,
}

// simulationStructs are the structs besides ...Config whose fields are
// settings: what a generated world makes of a block and its hosts. A field
// no world sets models traffic no study sees.
var simulationStructs = map[string]bool{
	"netsim.Block":        true,
	"netsim.Diurnal":      true,
	"netsim.Intermittent": true,
	"netsim.Periodic":     true,
}

// TestConfigKnobsAreSet keeps configuration honest: every exported field of
// an exported ...Config struct under internal/, and of each of
// simulationStructs, is set by a non-test file outside the struct's own
// package — a command, an example, the world generator or the benchmark —
// or is on the list above with its reason. A field that only tests or its
// own package's defaults write is a constant with a longer name; make it
// one. The check is syntactic and deliberately generous: a field
// counts as set by a keyed literal of its type (an unkeyed one sets them
// all), or by any assignment to a selector of its name in a file that
// imports the struct's package.
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
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
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
		if !strings.HasPrefix(p, "internal/") {
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
				qualified := strings.TrimPrefix(path.Dir(p), "internal/") + "." + ts.Name.Name
				if !strings.HasSuffix(ts.Name.Name, "Config") && !simulationStructs[qualified] {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
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
	for name := range simulationStructs {
		pkg, typ, _ := strings.Cut(name, ".")
		if _, ok := fields[typeKey{"internal/" + pkg, typ}]; !ok {
			t.Errorf("%s: on simulationStructs but not an exported struct under internal/", name)
		}
	}

	// Pass 2: who outside each struct's package sets what.
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
		imported := func(k typeKey) bool {
			for _, d := range imports {
				if d == k.dir && d != dir {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					break
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					break
				}
				k := typeKey{imports[x.Name], sel.Sel.Name}
				if _, ok := set[k]; !ok || !imported(k) {
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
						if imported(k) {
							set[k][sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	var problems []string
	declared := make(map[string]bool) // knobsWithoutCallers entry -> names a config field or struct
	needed := make(map[string]bool)   // knobsWithoutCallers entry -> excuses an unset field
	for k, names := range fields {
		pkg := strings.TrimPrefix(k.dir, "internal/")
		for _, name := range names {
			key := pkg + "." + k.name + "." + name
			entry := key
			if _, ok := knobsWithoutCallers[entry]; !ok {
				entry = pkg + "." + k.name
			}
			_, excused := knobsWithoutCallers[entry]
			if excused {
				declared[entry] = true
			}
			switch {
			case set[k][name]:
			case excused:
				needed[entry] = true
			default:
				problems = append(problems, key+": nothing in the module sets this field; make it a constant")
			}
		}
	}
	for entry := range knobsWithoutCallers {
		switch {
		case !declared[entry]:
			problems = append(problems, entry+": on knobsWithoutCallers but not an exported config field or struct under internal/")
		case !needed[entry]:
			problems = append(problems, entry+": non-test code outside its package sets it now; take it off knobsWithoutCallers")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
