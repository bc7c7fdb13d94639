// Package stats is the statistics substrate for the study: means and
// quantiles, Pearson correlation, least-squares regression, empirical CDFs
// and the two-sample KS test, 2-D density grids, the special function
// needed for exact p-values (regularized incomplete beta), the F
// distribution's tail, and regression ANOVA on continuous country-level
// covariates, which is what the paper's Table 5 uses.
//
// Everything is implemented from scratch on the standard library, matching
// the definitions in standard texts; see the tests for cross-checks against
// closed-form cases and R/scipy reference values.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or NaN for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics (R type-7, the R and NumPy
// default). x need not be sorted. It returns NaN for empty input or q
// outside [0, 1].
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantilesSorted computes several quantiles of already-sorted data in one
// pass over qs. It panics if s is not sorted in tests; callers are expected
// to sort once and reuse.
func QuantilesSorted(s []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(s) == 0 || q < 0 || q > 1 {
			out[i] = math.NaN()
			continue
		}
		out[i] = quantileSorted(s, q)
	}
	return out
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}
