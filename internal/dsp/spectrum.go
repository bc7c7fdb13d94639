package dsp

import (
	"fmt"
	"math/cmplx"
)

// Spectrum holds the one-sided interpretation of the DFT of a real series:
// bins 0..n/2, with per-bin amplitude and phase. Bin k corresponds to k
// cycles over the whole series (k/(n*dt) Hz for sample spacing dt).
type Spectrum struct {
	// N is the length of the original series.
	N int
	// Coef holds the complex DFT coefficients for bins 0..n/2 inclusive.
	Coef []complex128
	// Amp holds |Coef[k]| for each retained bin. Amp[0] is the DC magnitude.
	Amp []float64
}

// NewSpectrumScratch computes the one-sided spectrum of the real series x.
// The series mean (DC) is retained in bin 0 but is excluded by the peak
// helpers, which look for periodic structure only. Transform temporaries
// are staged through the caller's scratch (nil borrows a pooled one), so a
// worker classifying many same-length series allocates only the returned
// Spectrum. The Spectrum owns its Coef and Amp storage and may be retained
// after the scratch is reused.
//
// The transform takes the plan's full complex path rather than the packed
// real shortcut: same-seed study output — coefficient phases included — is
// pinned to its bits.
func NewSpectrumScratch(x []float64, sc *Scratch) *Spectrum {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	n := len(x)
	keep := n/2 + 1
	if n == 0 {
		keep = 0
	}
	s := &Spectrum{
		N:    n,
		Coef: make([]complex128, keep),
		Amp:  make([]float64, keep),
	}
	stop := observeFFT(n)
	PlanFor(n).realForwardExactInto(s.Coef, x, sc)
	if stop != nil {
		stop()
	}
	for k := 0; k < keep; k++ {
		s.Amp[k] = cmplx.Abs(s.Coef[k])
	}
	return s
}

// Phase returns the phase angle of bin k in radians in (-pi, pi].
func (s *Spectrum) Phase(k int) float64 {
	if k < 0 || k >= len(s.Coef) {
		return 0
	}
	return cmplx.Phase(s.Coef[k])
}

// Peak returns the non-DC bin with the largest amplitude and that amplitude.
// It returns (0, 0) when the spectrum has no non-DC bins.
func (s *Spectrum) Peak() (bin int, amp float64) {
	for k := 1; k < len(s.Amp); k++ {
		if s.Amp[k] > amp {
			bin, amp = k, s.Amp[k]
		}
	}
	return bin, amp
}

// PeakExcluding returns the strongest non-DC bin whose index is not rejected
// by skip. It returns (0, 0) if every bin is rejected.
func (s *Spectrum) PeakExcluding(skip func(k int) bool) (bin int, amp float64) {
	for k := 1; k < len(s.Amp); k++ {
		if skip != nil && skip(k) {
			continue
		}
		if s.Amp[k] > amp {
			bin, amp = k, s.Amp[k]
		}
	}
	return bin, amp
}

// AmpAt returns the amplitude of bin k, or 0 when out of range.
func (s *Spectrum) AmpAt(k int) float64 {
	if k < 0 || k >= len(s.Amp) {
		return 0
	}
	return s.Amp[k]
}

// IsHarmonicOf reports whether bin k is an exact harmonic (integer multiple,
// tolerance tol bins) of the fundamental bin f. The fundamental itself is not
// considered its own harmonic.
func IsHarmonicOf(k, f, tol int) bool {
	if f <= 0 || k <= f {
		return false
	}
	m := (k + f/2) / f // nearest multiple
	if m < 2 {
		return false
	}
	return abs(k-m*f) <= tol
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// DetrendLinearInto removes the least-squares line from x into dst (which
// must have length len(x); dst may be x itself) and returns dst, so a
// caller staging through a Scratch allocates nothing.
func DetrendLinearInto(dst, x []float64) []float64 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: DetrendLinearInto: dst length %d does not match input length %d", len(dst), len(x)))
	}
	out := dst
	n := float64(len(x))
	if len(x) == 0 {
		return out
	}
	var sx, sy, sxx, sxy float64
	for i, v := range x {
		fi := float64(i)
		sx += fi
		sy += v
		sxx += fi * fi
		sxy += fi * v
	}
	den := n*sxx - sx*sx
	var slope, intercept float64
	if den != 0 {
		slope = (n*sxy - sx*sy) / den
		intercept = (sy - slope*sx) / n
	} else {
		intercept = sy / n
	}
	for i, v := range x {
		out[i] = v - (intercept + slope*float64(i))
	}
	return out
}
