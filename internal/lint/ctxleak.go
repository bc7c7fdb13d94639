package lint

// ctxleak enforces the supervision-tree contract of the long-running
// subsystems: a goroutine spawned inside internal/monitor or internal/serve
// must observe a cancellation signal on some path — a context.Context
// value, or a channel receive (a closed work/done channel is the other
// shutdown idiom here). A goroutine observing neither can outlive its
// supervisor, which is exactly the leak the -race SIGTERM soak hunts for
// dynamically; this rule refuses it at build time.
//
// Resolution is one level deep: a `go` of a function literal scans the
// literal (and the call's arguments); a `go` of a same-package function
// scans that function's body. A cross-package spawn is judged by its
// arguments only — passing a ctx or a channel counts.

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxLeak checks that goroutines in supervised packages observe a
// ctx/done signal.
type CtxLeak struct{}

func (CtxLeak) Name() string { return "ctxleak" }
func (CtxLeak) Doc() string {
	return "goroutines spawned in monitor/serve must observe a ctx or done channel on some path"
}

// ctxLeakPkgs are the supervised subsystems (plus fixtures).
func ctxLeakApplies(pkgPath string) bool {
	if strings.HasPrefix(pkgPath, "fixture/") {
		pkgPath = strings.TrimPrefix(pkgPath, "fixture/")
	}
	switch pkgPath[strings.LastIndex(pkgPath, "/")+1:] {
	case "monitor", "serve", "ctxleak":
		return true
	}
	return false
}

func (CtxLeak) Check(p *Pass) {
	if !ctxLeakApplies(p.PkgPath) {
		return
	}
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goObservesSignal(p, g, decls) {
				return true
			}
			p.Report(g, "ctxleak",
				"this goroutine observes no ctx or done channel — it can outlive its supervisor",
				"select on ctx.Done() (or range a closable channel) in its loop")
			return true
		})
	}
}

// goObservesSignal reports whether the spawned goroutine can see a
// cancellation signal.
func goObservesSignal(p *Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) bool {
	// A ctx or channel handed to the call is the caller's declaration that
	// the callee observes it.
	for _, arg := range g.Call.Args {
		if t := p.TypeOf(arg); t != nil && (isContextType(t) || isChanType(t)) {
			return true
		}
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return bodyObservesSignal(p, fun.Body)
	case *ast.Ident:
		if fd := decls[p.Info.Uses[fun]]; fd != nil {
			return bodyObservesSignal(p, fd.Body)
		}
	case *ast.SelectorExpr:
		if fd := decls[p.Info.Uses[fun.Sel]]; fd != nil {
			return bodyObservesSignal(p, fd.Body)
		}
		// Receiver carrying a ctx/done the method observes is beyond this
		// analysis; a method value spawn with no signal argument is
		// flagged and justified case by case.
	}
	return false
}

// bodyObservesSignal scans a body (including nested literals — helpers the
// goroutine itself runs) for a context reference or a channel receive.
func bodyObservesSignal(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if t := p.TypeOf(x); t != nil && isContextType(t) {
				found = true
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(x.X); t != nil && isChanType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
