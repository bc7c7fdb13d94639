package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between two non-constant float operands outside
// tests. Availability fractions, FFT magnitudes, and correlation
// coefficients all accumulate rounding error, so exact equality silently
// flips near boundaries; compare within an explicit tolerance, or say with
// a //lint:allow why exact equality is what the site means (a sort
// tie-break, a tie defined by equality). Comparisons against a constant (v == 0 sentinel checks) and the x != x
// NaN idiom stay legal: both are exact by construction.
type FloatEq struct{}

func (FloatEq) Name() string { return "floateq" }
func (FloatEq) Doc() string {
	return "flag ==/!= between non-constant floats outside tests; compare within a tolerance"
}

func (FloatEq) Check(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			tx, okx := p.Info.Types[be.X]
			ty, oky := p.Info.Types[be.Y]
			if !okx || !oky {
				return true
			}
			// A constant operand compares exactly (v == 0 defaults checks).
			if tx.Value != nil || ty.Value != nil {
				return true
			}
			if !isFloat(tx.Type) || !isFloat(ty.Type) {
				return true
			}
			// x != x is the portable NaN test; leave it alone.
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true
			}
			if p.IsTestFile(be) {
				return true
			}
			p.Report(be, "floateq",
				fmt.Sprintf("%s between computed floats is rounding-fragile", be.Op),
				fmt.Sprintf("compare math.Abs(%s - %s) against an explicit tolerance",
					types.ExprString(be.X), types.ExprString(be.Y)))
			return true
		})
	}
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
