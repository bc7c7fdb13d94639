package core

import (
	"fmt"
	"math"

	"sleepnet/internal/dsp"
)

// ACFResult is the outcome of the autocorrelation-based diurnal test — an
// alternative detector used to ablate the paper's spectral method: instead
// of requiring a dominant FFT bin at 1 cycle/day, it requires the
// autocorrelation function to peak at the one-day lag.
type ACFResult struct {
	// Diurnal is the detector's verdict.
	Diurnal bool
	// DayLag is the lag (in samples) corresponding to 24 hours.
	DayLag int
	// PeakLag is the dominant lag found in the search window.
	PeakLag int
	// PeakValue is the autocorrelation at the dominant lag.
	PeakValue float64
}

// acfThreshold is the minimum one-day autocorrelation considered a real
// daily structure rather than noise.
const acfThreshold = 0.25

// DetectDiurnalACF classifies a series sampled samplesPerDay times per day
// by its autocorrelation: diurnal when the dominant lag in the half-day to
// day-and-a-half window sits within 5% of the one-day lag with correlation
// at least 0.25. It needs at least two days of data, like the FFT test.
func DetectDiurnalACF(values []float64, samplesPerDay float64) (ACFResult, error) {
	if samplesPerDay <= 1 {
		return ACFResult{}, fmt.Errorf("core: DetectDiurnalACF needs samplesPerDay > 1, got %v", samplesPerDay)
	}
	dayLag := int(math.Round(samplesPerDay))
	if len(values) < 2*dayLag {
		return ACFResult{}, fmt.Errorf("core: series of %d too short for day lag %d", len(values), dayLag)
	}
	maxLag := dayLag + dayLag/2
	if maxLag >= len(values) {
		maxLag = len(values) - 1
	}
	acf, err := dsp.Autocorrelation(dsp.DetrendLinearInto(make([]float64, len(values)), values), maxLag)
	if err != nil {
		return ACFResult{}, err
	}
	minLag := dayLag / 2
	if minLag < 1 {
		minLag = 1
	}
	lag, v, err := dsp.DominantLag(acf, minLag, maxLag)
	if err != nil {
		return ACFResult{}, err
	}
	res := ACFResult{DayLag: dayLag, PeakLag: lag, PeakValue: v}
	tol := int(0.05*float64(dayLag)) + 1
	if abs(lag-dayLag) <= tol && v >= acfThreshold {
		res.Diurnal = true
	}
	return res, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
