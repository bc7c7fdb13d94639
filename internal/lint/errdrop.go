package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags statement-position calls whose error result vanishes: the
// saved-study checkpoint and resume depend on I/O errors actually
// propagating (a dropped append or fsync error means a silent half-written
// study).
// Explicit discards (`_ = f()`) stay legal — they are visible in review —
// as do calls that cannot fail by contract: fmt printing to
// stdout/stderr/in-memory buffers and *bytes.Buffer / *strings.Builder
// methods, whose error results are documented always-nil.
type ErrDrop struct{}

func (ErrDrop) Name() string { return "errdrop" }
func (ErrDrop) Doc() string {
	return "flag discarded error returns outside the always-nil allowlist (fmt to stdout, in-memory buffers)"
}

func (ErrDrop) Check(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			t := p.TypeOf(call)
			if t == nil || !returnsError(t) {
				return true
			}
			if errDropAllowed(p, call) {
				return true
			}
			p.Report(call, "errdrop",
				fmt.Sprintf("error returned by %s is discarded", callName(call)),
				"handle the error (return/wrap/log-and-degrade) or assign `_ =` with a comment saying why it is safe")
			return true
		})
	}
}

// returnsError reports whether a call result type includes error.
func returnsError(t types.Type) bool {
	if isErrorType(t) {
		return true
	}
	tup, ok := t.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tup.Len(); i++ {
		if isErrorType(tup.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// errDropAllowed applies the always-nil allowlist.
func errDropAllowed(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	obj := p.Info.Uses[sel.Sel]

	// Methods on in-memory buffers never return a non-nil error.
	if s := p.Info.Selections[sel]; s != nil {
		if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil {
			pkgName := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if pkgName == "bytes.Buffer" || pkgName == "strings.Builder" {
				return true
			}
		}
		return false
	}

	// Package-level fmt calls.
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		if strings.HasPrefix(name, "Print") {
			return true // implicit stdout: conventional in CLIs
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			return safeWriter(p, call.Args[0])
		}
	}
	return false
}

// safeWriter reports whether the fmt.Fprint* destination cannot meaningfully
// fail: os.Stdout/os.Stderr or an in-memory buffer.
func safeWriter(p *Pass, w ast.Expr) bool {
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" &&
			(obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	if named, ok := derefNamed(p.TypeOf(w)); ok && named.Obj().Pkg() != nil {
		pkgName := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		return pkgName == "bytes.Buffer" || pkgName == "strings.Builder"
	}
	return false
}

// callName renders the called expression for the message.
func callName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
