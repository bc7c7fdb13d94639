// Package dsp provides the spectral-analysis substrate used by the diurnal
// detector: one cached-plan Fourier transform for arbitrary input lengths
// (Plan: iterative radix-2 for powers of two, Bluestein's chirp-z algorithm
// for everything else), helpers for interpreting real-valued spectra
// (amplitude, phase, harmonics), and the autocorrelation the ACF ablation
// arm compares the spectral detector against.
//
// The paper computes an FFT over an 11-minute availability timeseries whose
// length is whatever the measurement produced (rarely a power of two), so
// arbitrary-n support is required, not a convenience.
package dsp

import (
	"math"
	"math/bits"
)

// DFT computes the transform by the O(n^2) definition:
//
//	X[k] = sum_{m=0}^{n-1} x[m] * exp(-2*pi*i*m*k/n)
//
// It is the oracle the planned transforms are tested against; nothing
// outside tests calls it.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	w := -2 * math.Pi / float64(n)
	for k := 0; k < n; k++ {
		var sum complex128
		for m := 0; m < n; m++ {
			s, c := math.Sincos(w * float64(k) * float64(m))
			sum += x[m] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
