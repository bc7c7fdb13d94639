package stats

import "math"

// Pearson returns the Pearson product-moment correlation coefficient of
// paired samples x and y. It returns NaN for mismatched lengths, fewer than
// two pairs, or zero variance in either sample.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// WeightedPearson returns the Pearson correlation of x and y with
// non-negative observation weights w. Used when correlating per-country
// aggregates weighted by block counts.
func WeightedPearson(x, y, w []float64) float64 {
	n := len(x)
	if n != len(y) || n != len(w) || n < 2 {
		return math.NaN()
	}
	var sw, mx, my float64
	for i := 0; i < n; i++ {
		sw += w[i]
		mx += w[i] * x[i]
		my += w[i] * y[i]
	}
	if sw <= 0 {
		return math.NaN()
	}
	mx /= sw
	my /= sw
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += w[i] * dx * dy
		sxx += w[i] * dx * dx
		syy += w[i] * dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
