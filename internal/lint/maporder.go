package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags `for range` over a map whose body makes iteration order
// observable — appending to a slice that is never sorted afterwards in the
// same function, writing to a writer/encoder, or emitting metrics. Go
// randomizes map iteration order per run, so any of these turns a snapshot,
// report, or metrics dump nondeterministic: the classic way the golden
// same-seed test gets broken. The accepted shape is collect-then-sort:
// append keys or rows inside the loop and sort them before anything is
// emitted.
type MapOrder struct{}

func (MapOrder) Name() string { return "maporder" }
func (MapOrder) Doc() string {
	return "flag map iteration whose order escapes (unsorted append, writer/encoder writes, metric emits)"
}

// emitMethods are method names that make iteration order observable when
// called inside a map-range body.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// metricEmitMethods are the internal/metrics mutation methods.
var metricEmitMethods = map[string]bool{
	"Inc": true, "Add": true, "Observe": true,
}

func (MapOrder) Check(p *Pass) {
	for _, f := range p.Files {
		for _, body := range functionBodies(f) {
			checkBodyMapOrder(p, body)
		}
	}
}

// functionBodies returns every function body in the file: top-level
// declarations plus function literals, each analyzed independently.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}

// inspectOwn walks n but does not descend into nested function literals;
// their bodies are analyzed as functions in their own right.
func inspectOwn(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return fn(m)
	})
}

func checkBodyMapOrder(p *Pass, body *ast.BlockStmt) {
	inspectOwn(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(p, body, rng)
		return true
	})
}

// checkMapRange inspects one map-range loop for order-escaping operations.
func checkMapRange(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	inspectOwn(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(stmt.Lhs) {
					continue
				}
				target := rootObject(p, stmt.Lhs[i])
				if target == nil {
					continue
				}
				if sortedAfter(p, fnBody, rng, target) {
					continue
				}
				p.Report(call, "maporder",
					fmt.Sprintf("append to %q inside map iteration without a post-loop sort makes its order nondeterministic", target.Name()),
					fmt.Sprintf("sort.Slice/sort.Strings %s after the loop (or range over sorted keys)", target.Name()))
			}
		case *ast.CallExpr:
			if name, ok := orderEscapingCall(p, stmt); ok {
				p.Report(stmt, "maporder",
					fmt.Sprintf("%s inside map iteration emits in nondeterministic order", name),
					"collect rows into a slice, sort it after the loop, then emit")
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// rootObject resolves the object an lvalue ultimately writes through: the
// ident itself, or the base of a selector/index chain (out.Rows -> out).
func rootObject(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, after the range loop inside the same
// function body, a sort/slices call references target — directly, or via a
// range-value alias (`for _, s := range target { sort.Ints(s) }`, the
// map-of-slices shape).
func sortedAfter(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	// First pass: objects that alias (parts of) the target after the loop.
	aliases := map[types.Object]bool{target: true}
	inspectOwn(fnBody, func(n ast.Node) bool {
		r2, ok := n.(*ast.RangeStmt)
		if !ok || r2.Pos() <= rng.End() || !referencesObject(p, r2.X, target) {
			return true
		}
		if id, ok := r2.Value.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				aliases[obj] = true
			}
		}
		return true
	})
	found := false
	inspectOwn(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if !isSortCall(p, call) {
			return true
		}
		for _, arg := range call.Args {
			for obj := range aliases {
				if referencesObject(p, arg, obj) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isSortCall reports whether call invokes the sort or slices package.
func isSortCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "sort" || path == "slices"
}

// referencesObject reports whether expr mentions target anywhere.
func referencesObject(p *Pass, expr ast.Expr, target types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == target {
			found = true
		}
		return !found
	})
	return found
}

// orderEscapingCall classifies a call inside a map-range body that emits
// directly: fmt printing, writer/encoder methods, or metrics mutations.
func orderEscapingCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	// fmt.Fprint*/fmt.Print* to any destination.
	if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return "fmt." + name, true
		}
	}
	// Writer/encoder method calls.
	if emitMethods[name] && p.Info.Selections[sel] != nil {
		return "." + name + " call", true
	}
	// Metrics emits: Inc/Add/Set/Observe on internal/metrics types.
	if metricEmitMethods[name] {
		if s := p.Info.Selections[sel]; s != nil {
			if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "sleepnet/internal/metrics" {
				return "metrics ." + name + " call", true
			}
		}
	}
	return "", false
}

// derefNamed unwraps pointers down to a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x, true
		default:
			return nil, false
		}
	}
}
