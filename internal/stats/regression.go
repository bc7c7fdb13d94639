package stats

import (
	"fmt"
	"math"
)

// LinearFit is the result of a simple least-squares line fit y = a + b*x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R         float64 // Pearson correlation of x and y
	R2        float64 // coefficient of determination
	N         int
}

// FitLine fits y = a + b*x by ordinary least squares.
// It returns an error for mismatched lengths or fewer than two points.
func FitLine(x, y []float64) (LinearFit, error) {
	n := len(x)
	if n != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch %d vs %d", n, len(y))
	}
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs >= 2 points, got %d", n)
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLine degenerate x (zero variance)")
	}
	b := sxy / sxx
	fit := LinearFit{
		Intercept: my - b*mx,
		Slope:     b,
		N:         n,
	}
	if syy > 0 {
		fit.R = sxy / math.Sqrt(sxx*syy)
		fit.R2 = fit.R * fit.R
	}
	return fit, nil
}

// OLS is a multiple linear regression fit y = Xb (the design matrix X must
// already contain an intercept column if one is wanted).
type OLS struct {
	Coef []float64 // fitted coefficients, one per design column
	SSE  float64   // residual sum of squares
	SST  float64   // total sum of squares about the mean of y
	SSR  float64   // regression sum of squares (SST - SSE)
	N    int       // observations
	P    int       // design columns (parameters)
}

// FitOLS solves the normal equations (X'X) b = X'y by Gaussian elimination
// with partial pivoting. The design is expected to be small (the paper's
// ANOVA uses at most three columns), so this is both adequate and exact
// enough. rows(X) must equal len(y) and exceed the number of columns.
func FitOLS(x [][]float64, y []float64) (OLS, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return OLS{}, fmt.Errorf("stats: FitOLS needs matching non-empty x (%d rows) and y (%d)", n, len(y))
	}
	p := len(x[0])
	if p == 0 {
		return OLS{}, fmt.Errorf("stats: FitOLS empty design row")
	}
	if n <= p {
		return OLS{}, fmt.Errorf("stats: FitOLS needs more observations (%d) than parameters (%d)", n, p)
	}
	for i, row := range x {
		if len(row) != p {
			return OLS{}, fmt.Errorf("stats: FitOLS ragged design at row %d: %d vs %d", i, len(row), p)
		}
	}
	// Normal equations.
	xtx := make([][]float64, p)
	xty := make([]float64, p)
	for i := 0; i < p; i++ {
		xtx[i] = make([]float64, p)
	}
	for r := 0; r < n; r++ {
		for i := 0; i < p; i++ {
			xty[i] += x[r][i] * y[r]
			for j := i; j < p; j++ {
				xtx[i][j] += x[r][i] * x[r][j]
			}
		}
	}
	for i := 1; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	coef, err := SolveLinear(xtx, xty)
	if err != nil {
		return OLS{}, fmt.Errorf("stats: FitOLS singular design: %w", err)
	}
	fit := OLS{Coef: coef, N: n, P: p}
	my := Mean(y)
	for r := 0; r < n; r++ {
		var pred float64
		for j := 0; j < p; j++ {
			pred += coef[j] * x[r][j]
		}
		e := y[r] - pred
		fit.SSE += e * e
		d := y[r] - my
		fit.SST += d * d
	}
	fit.SSR = fit.SST - fit.SSE
	if fit.SSR < 0 {
		fit.SSR = 0
	}
	return fit, nil
}

// SolveLinear solves the dense system a*x = b by Gaussian elimination with
// partial pivoting, destroying neither input. It returns an error when the
// matrix is singular to working precision.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("stats: SolveLinear dimension mismatch")
	}
	// Copy.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: SolveLinear non-square matrix")
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	v := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: singular matrix at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		v[col], v[pivot] = v[pivot], v[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			v[r] -= f * v[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := v[i]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
