package lint

// annotations.go — the contract annotations aliasretain and hotalloc consume.
//
//	//lint:hotpath: <why this function must stay allocation-free>
//	//lint:aliases <name>[,<name>...]: <what aliases what, and why>
//
// Both live in a function's doc comment (or an interface method's). A
// hotpath annotation puts the function and everything it statically calls
// within its package under the hotalloc allocation budget. An aliases
// annotation declares the named parameters (or `return`, meaning the
// results) call-scoped at every call site: the value handed in or out
// aliases a caller-owned buffer and must not be retained — the aliasretain
// rule enforces that in callers module-wide, which is why the alias index
// is shared across packages rather than per-pass.
//
// Malformed annotations (unknown parameter, missing justification) are
// findings under the "annotation" pseudo-rule, mirroring how malformed
// //lint:allow directives are handled: a contract that does not parse
// protects nothing and must not look like it does.

import (
	"fmt"
	"go/ast"
	"strings"
)

const (
	hotpathPrefix = "//lint:hotpath"
	aliasesPrefix = "//lint:aliases "
)

// aliasSpec records which parts of a function's signature are declared
// call-scoped.
type aliasSpec struct {
	params map[string]bool // parameter names marked call-scoped
	idx    []int           // positional indexes of those parameters
	ret    bool            // results marked call-scoped ("return")
}

// Annotations is the module-wide annotation index, keyed by
// "<pkgpath>.<funcname>" (methods by bare method name: the contract is per
// package and name, shared by a concrete method and the interfaces that
// describe it).
type Annotations struct {
	aliases map[string]*aliasSpec
}

func newAnnotations() *Annotations {
	return &Annotations{aliases: make(map[string]*aliasSpec)}
}

// aliasesFor returns the alias spec for a callee key, or nil.
func (a *Annotations) aliasesFor(key string) *aliasSpec {
	if a == nil {
		return nil
	}
	return a.aliases[key]
}

// annKey builds the index key for a function name in a package.
func annKey(pkgPath, name string) string { return pkgPath + "." + name }

// collectAnnotations parses the pass's files for contract annotations,
// recording hotpath roots on the pass and alias specs into the shared
// module index. Malformed annotations are reported and ignored.
func (p *Pass) collectAnnotations(shared *Annotations) {
	p.hotpath = make(map[*ast.FuncDecl]bool)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				p.collectFuncAnnotations(shared, d, d.Name.Name, d.Type, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						ft, ok := m.Type.(*ast.FuncType)
						if !ok || len(m.Names) == 0 {
							continue
						}
						p.collectFuncAnnotations(shared, nil, m.Names[0].Name, ft, m.Doc)
					}
				}
			}
		}
	}
}

// collectFuncAnnotations handles one function or interface-method doc
// comment. fd is nil for interface methods (which cannot be hotpath roots:
// there is no body to check).
func (p *Pass) collectFuncAnnotations(shared *Annotations, fd *ast.FuncDecl, name string, ft *ast.FuncType, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		switch {
		case strings.HasPrefix(c.Text, hotpathPrefix):
			rest := strings.TrimPrefix(c.Text, hotpathPrefix)
			rest = strings.TrimSpace(strings.TrimPrefix(rest, ":"))
			if len(rest) < 10 {
				p.Report(c, "annotation",
					fmt.Sprintf("//lint:hotpath on %s requires a justification", name),
					"write //lint:hotpath: <why this path must stay allocation-free>")
				continue
			}
			if fd == nil || fd.Body == nil {
				p.Report(c, "annotation",
					fmt.Sprintf("//lint:hotpath on %s has no body to check", name),
					"annotate the concrete implementation instead")
				continue
			}
			p.hotpath[fd] = true

		case strings.HasPrefix(c.Text, aliasesPrefix):
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, aliasesPrefix))
			names, why := splitDirective(rest)
			if len(strings.TrimSpace(why)) < 10 {
				p.Report(c, "annotation",
					fmt.Sprintf("//lint:aliases on %s requires a justification", name),
					"write //lint:aliases <param|return>: <what aliases what, and why>")
				continue
			}
			spec := &aliasSpec{params: make(map[string]bool)}
			bad := false
			for _, n := range strings.Split(names, ",") {
				n = strings.TrimSpace(n)
				if n == "" {
					continue
				}
				if n == "return" {
					if ft.Results == nil || len(ft.Results.List) == 0 {
						p.Report(c, "annotation",
							fmt.Sprintf("//lint:aliases return on %s, which has no results", name), "")
						bad = true
						break
					}
					spec.ret = true
					continue
				}
				if !paramExists(ft, n) {
					p.Report(c, "annotation",
						fmt.Sprintf("//lint:aliases names %q, not a parameter of %s", n, name),
						"name a parameter or `return`")
					bad = true
					break
				}
				spec.params[n] = true
			}
			if bad || (len(spec.params) == 0 && !spec.ret) {
				if !bad {
					p.Report(c, "annotation",
						fmt.Sprintf("//lint:aliases on %s names nothing", name),
						"name a parameter or `return`")
				}
				continue
			}
			// Positional walk keeps idx sorted and deterministic.
			pi := 0
			if ft.Params != nil {
				for _, pf := range ft.Params.List {
					for _, id := range pf.Names {
						if spec.params[id.Name] {
							spec.idx = append(spec.idx, pi)
						}
						pi++
					}
					if len(pf.Names) == 0 {
						pi++
					}
				}
			}
			key := annKey(p.PkgPath, name)
			if prev := shared.aliases[key]; prev != nil && !sameAliasSpec(prev, spec) {
				p.Report(c, "annotation",
					fmt.Sprintf("conflicting //lint:aliases contracts for %s in this package", name),
					"same-named functions in one package share one aliasing contract")
				continue
			}
			shared.aliases[key] = spec
		}
	}
}

func paramExists(ft *ast.FuncType, name string) bool {
	if ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		for _, id := range f.Names {
			if id.Name == name {
				return true
			}
		}
	}
	return false
}

func sameAliasSpec(a, b *aliasSpec) bool {
	if a.ret != b.ret || len(a.params) != len(b.params) {
		return false
	}
	for k := range a.params {
		if !b.params[k] {
			return false
		}
	}
	return true
}
