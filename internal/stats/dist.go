package stats

import "math"

// FDist is Fisher's F distribution with D1 numerator and D2 denominator
// degrees of freedom.
type FDist struct {
	D1, D2 float64
}

// SF returns the survival function P(F > x), the p-value of an observed F
// statistic. The complementary incomplete-beta form is used directly so the
// extreme tail does not lose precision to cancellation.
func (f FDist) SF(x float64) float64 {
	if f.D1 <= 0 || f.D2 <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	z := f.D2 / (f.D2 + f.D1*x)
	return RegIncBeta(f.D2/2, f.D1/2, z)
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion (successes of n trials) at the given confidence
// level (e.g. 0.95). It behaves sensibly at the extremes (0 or n
// successes), unlike the normal approximation, which matters for Table 3's
// near-zero US diurnal fraction.
func WilsonInterval(successes, n int, confidence float64) (lo, hi float64) {
	if n <= 0 || successes < 0 || successes > n || confidence <= 0 || confidence >= 1 {
		return math.NaN(), math.NaN()
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	p := float64(successes) / float64(n)
	fn := float64(n)
	denom := 1 + z*z/fn
	center := (p + z*z/(2*fn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/fn+z*z/(4*fn*fn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
