package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamingAccumulationMatchesFFT pins the single-bin DFT convention the
// streaming classifier (internal/serve) relies on: accumulating
// Σ x[r]·(cos θ_r, sin θ_r) with θ_r = -2πkr/n — one multiply-add per round,
// the exact op pattern of a live accumulator — must reproduce the FFT bin
// coefficient the batch oracle computes, on both the radix-2 and Bluestein
// transform paths. The agreement harness (internal/agree) compares the two
// classifiers end to end; this test anchors the shared convention (exponent
// sign, no normalization) at the dsp layer, so a convention drift fails
// here with a pinpoint message instead of as a mysterious phase offset in
// the confusion matrices.
func TestStreamingAccumulationMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{64, 256, 330, 661} { // pow2 and Bluestein sizes
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		X := NewSpectrumScratch(x, nil).Coef
		for _, k := range []int{1, 2, 5, n / 3} {
			var re, im float64
			for r := 0; r < n; r++ {
				theta := -2 * math.Pi * float64(k) * float64(r) / float64(n)
				re += x[r] * math.Cos(theta)
				im += x[r] * math.Sin(theta)
			}
			want := X[k]
			scale := math.Hypot(real(want), imag(want)) + 1
			if math.Abs(re-real(want))/scale > 1e-9 || math.Abs(im-imag(want))/scale > 1e-9 {
				t.Fatalf("n=%d k=%d: accumulated (%g,%g), FFT bin (%g,%g)",
					n, k, re, im, real(want), imag(want))
			}
		}
	}
}
