package dsp

import "fmt"

// Autocorrelation returns the biased sample autocorrelation of x for lags
// 0..maxLag, computed in O(n log n) via the Wiener-Khinchin theorem
// (FFT of the power spectrum). ACF[0] is 1 for any non-constant series.
func Autocorrelation(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n < 2 {
		return nil, fmt.Errorf("dsp: autocorrelation needs >= 2 samples")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("dsp: maxLag %d out of range [0, %d)", maxLag, n)
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	// Zero-pad to avoid circular wrap.
	m := nextPow2(2 * n)
	r2 := PlanFor(m).r2
	cx := make([]complex128, m)
	for i, v := range x {
		cx[i] = complex(v-mean, 0)
	}
	r2.transform(cx, false)
	for i := range cx {
		re := real(cx[i])
		im := imag(cx[i])
		cx[i] = complex(re*re+im*im, 0)
	}
	r2.transform(cx, true)
	norm := real(cx[0])
	out := make([]float64, maxLag+1)
	if norm == 0 {
		// Constant series: define ACF as zero beyond lag 0.
		out[0] = 1
		return out, nil
	}
	for lag := 0; lag <= maxLag; lag++ {
		out[lag] = real(cx[lag]) / norm
	}
	return out, nil
}

// DominantLag returns the lag in [minLag, maxLag] with the largest
// autocorrelation and that value. It is the time-domain counterpart of the
// spectral peak: a diurnal series peaks at the one-day lag.
func DominantLag(acf []float64, minLag, maxLag int) (lag int, value float64, err error) {
	if minLag < 1 || maxLag >= len(acf) || minLag > maxLag {
		return 0, 0, fmt.Errorf("dsp: lag range [%d, %d] invalid for acf of %d", minLag, maxLag, len(acf))
	}
	lag = minLag
	value = acf[minLag]
	for l := minLag + 1; l <= maxLag; l++ {
		if acf[l] > value {
			lag, value = l, acf[l]
		}
	}
	return lag, value, nil
}
