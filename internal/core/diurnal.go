package core

import (
	"fmt"
	"sync"

	"sleepnet/internal/dsp"
)

// DiurnalClass is the outcome of the spectral diurnal test (§2.2).
type DiurnalClass int

const (
	// NonDiurnal blocks show no dominant daily periodicity.
	NonDiurnal DiurnalClass = iota
	// StrictDiurnal blocks have their strongest frequency at 1 cycle/day,
	// at least twice the next strongest non-harmonic frequency and greater
	// than all harmonics.
	StrictDiurnal
	// RelaxedDiurnal blocks have their strongest frequency at 1 cycle/day
	// or its first harmonic, without the 2x dominance requirement.
	RelaxedDiurnal
)

// String renders the class for reports.
func (c DiurnalClass) String() string {
	switch c {
	case StrictDiurnal:
		return "strict"
	case RelaxedDiurnal:
		return "relaxed"
	default:
		return "non-diurnal"
	}
}

// IsDiurnal reports whether the class is strict or relaxed diurnal.
func (c DiurnalClass) IsDiurnal() bool { return c != NonDiurnal }

// binTolerance is the +/- slop (in FFT bins) when matching the diurnal bin
// and its harmonics; the paper considers k = N_d and N_d + 1 "to account
// for noise".
const binTolerance = 1

// DiurnalResult is the full outcome of spectral diurnal detection for one
// block.
type DiurnalResult struct {
	Class DiurnalClass
	// Days is N_d, the number of whole days analyzed; the diurnal frequency
	// lives in FFT bin N_d (and N_d+1).
	Days int
	// FundamentalBin is the bin (N_d or N_d+1) carrying the larger diurnal
	// amplitude.
	FundamentalBin int
	// DiurnalAmp is the amplitude at the fundamental bin.
	DiurnalAmp float64
	// PeakBin and PeakAmp describe the strongest non-DC bin overall.
	PeakBin int
	PeakAmp float64
	// NextAmp is the strongest non-harmonic amplitude outside the diurnal
	// neighborhood — the value the 2x dominance rule compares against.
	NextAmp float64
	// MaxHarmonicAmp is the strongest amplitude among harmonics of the
	// fundamental.
	MaxHarmonicAmp float64
	// Phase is the angle of the 1-cycle/day FFT coefficient in (-pi, pi];
	// meaningful only for diurnal blocks (random otherwise).
	Phase float64
	// Spectrum retains the one-sided spectrum for plotting (Figs 1, 3, 6).
	Spectrum *dsp.Spectrum
}

// scratchPool shares warm dsp workspaces across the concurrent pipeline
// workers: DetectDiurnal borrows one per call, so
// classifying thousands of same-length series reuses the same transform
// buffers instead of rebuilding them per block.
var scratchPool = sync.Pool{New: func() any { return dsp.NewScratch() }}

// DetectDiurnal classifies a cleaned, midnight-trimmed availability series
// covering the given whole number of days. The series should be the
// short-term estimate Âs sampled every round (§2.2). It returns an error
// when days < 2 or the series is shorter than one sample per day, because
// the diurnal bin would be indistinguishable from the series trend.
func DetectDiurnal(values []float64, days int) (DiurnalResult, error) {
	sc := scratchPool.Get().(*dsp.Scratch)
	defer scratchPool.Put(sc)
	return DetectDiurnalScratch(values, days, sc)
}

// DetectDiurnalScratch is DetectDiurnal staging the detrended series and
// transform temporaries through the caller's scratch. Steady state it
// allocates only the retained Spectrum; the scratch must not be shared
// across goroutines.
func DetectDiurnalScratch(values []float64, days int, sc *dsp.Scratch) (DiurnalResult, error) {
	if days < 2 {
		return DiurnalResult{}, fmt.Errorf("core: DetectDiurnal needs >= 2 days, got %d", days)
	}
	if len(values) < 2*days {
		return DiurnalResult{}, fmt.Errorf("core: series of %d samples too short for %d days", len(values), days)
	}
	// Remove the mean so bin 0 does not dominate, and remove any linear
	// trend so slow drift is not mistaken for low-frequency strength.
	detrended := dsp.DetrendLinearInto(sc.Floats(len(values)), values)
	spec := dsp.NewSpectrumScratch(detrended, sc)
	res := DiurnalResult{Days: days, Spectrum: spec}

	kd := days
	// Fundamental: the stronger of bins N_d and N_d+1.
	res.FundamentalBin = kd
	res.DiurnalAmp = spec.AmpAt(kd)
	if a := spec.AmpAt(kd + 1); a > res.DiurnalAmp {
		res.FundamentalBin = kd + 1
		res.DiurnalAmp = a
	}
	res.Phase = spec.Phase(res.FundamentalBin)
	res.PeakBin, res.PeakAmp = spec.Peak()

	inDiurnalNeighborhood := func(k int) bool {
		return k >= kd-0 && k <= kd+binTolerance
	}
	isHarm := func(k int) bool {
		return dsp.IsHarmonicOf(k, res.FundamentalBin, binTolerance)
	}

	// Strongest bin outside the diurnal neighborhood and not a harmonic.
	_, res.NextAmp = spec.PeakExcluding(func(k int) bool {
		return inDiurnalNeighborhood(k) || isHarm(k)
	})
	// Strongest harmonic amplitude.
	_, res.MaxHarmonicAmp = spec.PeakExcluding(func(k int) bool {
		return !isHarm(k)
	})

	peakAtFundamental := inDiurnalNeighborhood(res.PeakBin)
	firstHarmonicLow := 2*kd - binTolerance
	firstHarmonicHigh := 2*(kd+binTolerance) + binTolerance
	peakAtFirstHarmonic := res.PeakBin >= firstHarmonicLow && res.PeakBin <= firstHarmonicHigh

	switch {
	case peakAtFundamental &&
		res.DiurnalAmp >= 2*res.NextAmp &&
		res.DiurnalAmp > res.MaxHarmonicAmp:
		res.Class = StrictDiurnal
	case peakAtFundamental || peakAtFirstHarmonic:
		res.Class = RelaxedDiurnal
	default:
		res.Class = NonDiurnal
	}
	return res, nil
}
