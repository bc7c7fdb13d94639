// Package timeseries provides the evenly-sampled series representation the
// spectral analysis runs on, plus the data-cleaning steps from §2.2 of the
// paper: mapping raw per-round observations onto an 11-minute grid
// (extrapolating single missing rounds, trusting the most recent value when
// a round is observed twice), trimming the series to start and end near
// midnight UTC so phase is tied to physical time, and the stationarity
// check (near-zero linear slope) that validates FFT appropriateness.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// DefaultRound is the probing round length used throughout the paper.
const DefaultRound = 660 * time.Second

// Sample is one raw observation tagged with its probing round.
type Sample struct {
	Round int
	Value float64
}

// Series is an evenly sampled timeseries: Values[i] is the value of round
// Start + i*Period.
type Series struct {
	Start  time.Time
	Period time.Duration
	Values []float64
}

// New creates a Series with the given start time and sampling period.
func New(start time.Time, period time.Duration, values []float64) Series {
	return Series{Start: start, Period: period, Values: values}
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.Values) }

// Duration returns the time covered by the series.
func (s Series) Duration() time.Duration {
	return time.Duration(len(s.Values)) * s.Period
}

// Days returns the (fractional) number of days the series covers.
func (s Series) Days() float64 {
	return s.Duration().Hours() / 24
}

// TimeAt returns the timestamp of sample i.
func (s Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Period)
}

// CleanStats reports what Clean had to repair.
type CleanStats struct {
	Filled     int // rounds synthesized from the previous value
	Duplicates int // extra observations for an already-seen round (dropped, latest wins)
	OutOfRange int // samples with round < 0 or >= nRounds
}

// Clean maps raw samples onto a dense nRounds-long grid following the
// paper's §2.2 cleaning rules: when a round was observed more than once the
// most recent observation wins; when a round is missing, the previous
// value is extrapolated (single-round gaps are the common case the paper
// describes; longer gaps are filled the same way and reported via
// CleanStats so callers can reject heavily-gapped blocks). Rounds before
// the first observation take the first observed value.
//
// It returns an error when samples is empty or nRounds <= 0.
func Clean(samples []Sample, nRounds int) ([]float64, CleanStats, error) {
	var st CleanStats
	if nRounds <= 0 {
		return nil, st, fmt.Errorf("timeseries: Clean needs nRounds > 0, got %d", nRounds)
	}
	if len(samples) == 0 {
		return nil, st, fmt.Errorf("timeseries: Clean needs at least one sample")
	}
	out := make([]float64, nRounds)
	seen := make([]bool, nRounds)
	for _, s := range samples {
		if s.Round < 0 || s.Round >= nRounds {
			st.OutOfRange++
			continue
		}
		if seen[s.Round] {
			st.Duplicates++
		}
		// Samples arrive in observation order; the latest assignment wins.
		out[s.Round] = s.Value
		seen[s.Round] = true
	}
	// Find first observed value for leading fill.
	first := -1
	for i, ok := range seen {
		if ok {
			first = i
			break
		}
	}
	if first == -1 {
		return nil, st, fmt.Errorf("timeseries: Clean got no in-range samples")
	}
	for i := 0; i < first; i++ {
		out[i] = out[first]
		st.Filled++
	}
	for i := first + 1; i < nRounds; i++ {
		if !seen[i] {
			out[i] = out[i-1]
			st.Filled++
		}
	}
	return out, st, nil
}

// TrimToMidnightUTC returns the subseries that starts at the first round
// boundary at or after a UTC midnight and ends just before the last UTC
// midnight within the series, tying FFT phase to physical time (§2.2).
// If the series does not span at least one full UTC day an error is
// returned.
func TrimToMidnightUTC(s Series) (Series, error) {
	if s.Period <= 0 {
		return Series{}, fmt.Errorf("timeseries: non-positive period %v", s.Period)
	}
	if len(s.Values) == 0 {
		return Series{}, fmt.Errorf("timeseries: empty series")
	}
	startUTC := s.Start.UTC()
	firstMidnight := time.Date(startUTC.Year(), startUTC.Month(), startUTC.Day(), 0, 0, 0, 0, time.UTC)
	if firstMidnight.Before(startUTC) {
		firstMidnight = firstMidnight.Add(24 * time.Hour)
	}
	// Index of the first round at or after firstMidnight.
	lead := int((firstMidnight.Sub(startUTC) + s.Period - 1) / s.Period)
	end := s.TimeAt(len(s.Values)).UTC() // exclusive end
	lastMidnight := time.Date(end.Year(), end.Month(), end.Day(), 0, 0, 0, 0, time.UTC)
	if lastMidnight.After(end) {
		lastMidnight = lastMidnight.Add(-24 * time.Hour)
	}
	tail := int(lastMidnight.Sub(startUTC) / s.Period)
	if tail > len(s.Values) {
		tail = len(s.Values)
	}
	if lead >= tail {
		return Series{}, fmt.Errorf("timeseries: series %v–%v does not span a full UTC day", startUTC, end)
	}
	return Series{
		Start:  startUTC.Add(time.Duration(lead) * s.Period),
		Period: s.Period,
		Values: s.Values[lead:tail:tail],
	}, nil
}

// SlopePerDay returns the least-squares slope of the series expressed in
// value-change per day.
func (s Series) SlopePerDay() float64 {
	n := len(s.Values)
	if n < 2 || s.Period <= 0 {
		return math.NaN()
	}
	// Least-squares slope per sample index.
	var sx, sy, sxx, sxy float64
	for i, v := range s.Values {
		fi := float64(i)
		sx += fi
		sy += v
		sxx += fi * fi
		sxy += fi * v
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	perSample := (fn*sxy - sx*sy) / den
	samplesPerDay := (24 * time.Hour).Seconds() / s.Period.Seconds()
	return perSample * samplesPerDay
}

// NearestDays returns the day count nearest to the series duration — the
// N_d used to pick the diurnal FFT bin. Because a day is not an integer
// number of 11-minute rounds, a midnight-trimmed series spans slightly
// less than a whole number of days (e.g. 1832 rounds = 13.995 days); the
// diurnal frequency bin is the *nearest* integer, not the floor.
func NearestDays(n int, period time.Duration) int {
	if period <= 0 {
		return 0
	}
	return int(math.Round(float64(n) * period.Seconds() / 86400))
}
