package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sleepnet/internal/par"
)

// Package is one loaded, type-checked package ready for rule checks.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// Path is the package's import path within the module.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-check errors (the checker continues past
	// them so rules still see partial information).
	TypeErrors []error
}

// Loader parses and type-checks packages from source, stdlib included, with
// no toolchain invocation beyond reading GOROOT sources. One Loader caches
// imports across packages, so loading a whole module is cheap. A Loader is
// safe for concurrent LoadDir calls: the FileSet synchronizes itself and the
// import cache is serialized behind a mutex, so dependencies shared by many
// packages are type-checked exactly once no matter how many workers load.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: &lockedImporter{imp: importer.ForCompiler(fset, "source", nil)}}
}

// lockedImporter serializes Import calls: the source importer's cache is not
// safe for concurrent use, but sharing that cache across type-check workers
// is the whole point — each dependency is checked once and every later
// Import is a cache hit. The packages it returns are complete, and complete
// *types.Package values are safe to read concurrently.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// LoadDir parses and type-checks the non-test files of one directory as the
// package importPath.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{Dir: dir, Path: importPath, Fset: l.Fset, Files: files}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// Check reports the first error it saw; with Error set it still
	// type-checks the rest, so keep the partial package either way.
	pkg.Types, _ = conf.Check(importPath, l.Fset, files, pkg.Info)
	return pkg, nil
}

// ModuleRoot walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return dir, strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// PackageDirs returns every directory under root that contains non-test Go
// files, skipping testdata, vendor, hidden, and underscore-prefixed
// directories — the same exclusions the go tool applies.
func PackageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// LoadModule loads every package under the module rooted at (or above) dir
// whose directory matches one of the patterns. Patterns follow the go tool
// shape: "./..." loads everything, "./internal/world" one package,
// "./internal/..." a subtree. An empty pattern list means "./...".
//
// The type-checking is dealt one package at a time across GOMAXPROCS
// goroutines (par.For). Type-checking dominates whole-module lint time, so
// this is where the parallelism pays; rules still run sequentially over the
// loaded packages (the annotation index and finding order stay trivially
// deterministic that way). The goroutines share one Loader, so each dependency is type-checked
// once behind its locked import cache, and packages come back in directory
// order no matter which worker finished first, so output is byte-identical
// across runs and worker counts.
func LoadModule(dir string, patterns []string) ([]*Package, error) {
	root, modPath, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		return nil, err
	}
	keep, err := matchPatterns(root, dir, dirs, patterns)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(keep))
	for i, d := range keep {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		paths[i] = modPath
		if rel != "." {
			paths[i] = modPath + "/" + filepath.ToSlash(rel)
		}
	}
	l := NewLoader()
	pkgs := make([]*Package, len(keep))
	errs := make([]error, len(keep))
	par.For(len(keep), 1, 0, func(i, _ int) {
		pkg, err := l.LoadDir(keep[i], paths[i])
		if err != nil {
			errs[i] = fmt.Errorf("lint: loading %s: %w", paths[i], err)
			return
		}
		pkgs[i] = pkg
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// matchPatterns filters package dirs by the go-tool-style patterns,
// resolved relative to base.
func matchPatterns(root, base string, dirs, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	keep := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		abs := pat
		if !filepath.IsAbs(pat) {
			abs = filepath.Join(base, pat)
		}
		abs = filepath.Clean(abs)
		matched := false
		for _, d := range dirs {
			if d == abs || (recursive && strings.HasPrefix(d+string(filepath.Separator), abs+string(filepath.Separator))) {
				keep[d] = true
				matched = true
			}
		}
		if !matched && !recursive {
			return nil, fmt.Errorf("lint: pattern %s matches no package under %s", pat, root)
		}
	}
	var out []string
	for d := range keep {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}
