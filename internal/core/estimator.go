// Package core implements the paper's primary contribution: estimating
// /24-block availability from the biased observations of adaptive outage
// probing (§2.1), and detecting diurnal blocks by spectral analysis of the
// short-term estimate (§2.2).
//
// Three availability estimates are maintained per block, all exponentially
// weighted moving averages over the per-round observation of p positive
// responses out of t probes:
//
//	Âs = p̂s/t̂s with gain αs = 0.1  (short-term, drives diurnal detection)
//	Âl = p̂l/t̂l with gain αl = 0.01 (long-term)
//	Âo = max(Âl − d̂l/2, 0.1)        (operational, deliberately conservative)
//
// p and t are smoothed separately because A is their ratio: smoothing the
// ratio directly overestimates A (the paper's A12w variant, kept here as
// RatioEstimator for the ratioewma ablation of cmd/experiments).
package core

import "math"

// Estimator gains and floors from §2.1.2 of the paper.
const (
	AlphaShort       = 0.1
	AlphaLong        = 0.01
	OperationalFloor = 0.1
)

// Estimator tracks the three availability estimates for one block.
type Estimator struct {
	alphaS, alphaL float64

	pS, tS float64 // short-term EWMAs of p and t
	pL, tL float64 // long-term EWMAs of p and t
	dL     float64 // long-term EWMA of |Âl − p/t|

	rounds int
}

// NewEstimator creates an estimator seeded with a historical availability
// estimate (the paper seeds from years-old census data, which may be badly
// wrong; the estimator must converge regardless). initialA is clamped to
// [0, 1].
func NewEstimator(initialA float64) *Estimator {
	initialA = clamp01(initialA)
	return &Estimator{
		alphaS: AlphaShort,
		alphaL: AlphaLong,
		// Seed the averages as one synthetic observation of a single probe
		// with the historical success rate.
		pS: initialA, tS: 1,
		pL: initialA, tL: 1,
	}
}

// NewEstimatorWithGains creates an estimator with custom gains, for the
// gain-sensitivity ablation.
func NewEstimatorWithGains(initialA, alphaS, alphaL float64) *Estimator {
	e := NewEstimator(initialA)
	e.alphaS = alphaS
	e.alphaL = alphaL
	return e
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Observe folds one round's observation (p positives of t probes) into the
// estimates. Rounds with t == 0 are ignored.
func (e *Estimator) Observe(p, t int) {
	if t <= 0 {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > t {
		p = t
	}
	fp, ft := float64(p), float64(t)
	e.pS = e.alphaS*fp + (1-e.alphaS)*e.pS
	e.tS = e.alphaS*ft + (1-e.alphaS)*e.tS
	e.pL = e.alphaL*fp + (1-e.alphaL)*e.pL
	e.tL = e.alphaL*ft + (1-e.alphaL)*e.tL
	// Deviation of the raw sample from the long-term estimate.
	e.dL = e.alphaL*math.Abs(e.LongTerm()-fp/ft) + (1-e.alphaL)*e.dL
	e.rounds++
}

// ShortTerm returns Âs.
func (e *Estimator) ShortTerm() float64 { return ratio(e.pS, e.tS) }

// LongTerm returns Âl.
func (e *Estimator) LongTerm() float64 { return ratio(e.pL, e.tL) }

// Operational returns Âo = max(Âl − d̂l/2, 0.1): a deliberately conservative
// value, because an overestimate makes a few negative probes look like an
// outage.
func (e *Estimator) Operational() float64 {
	v := e.LongTerm() - e.dL/2
	if v < OperationalFloor {
		return OperationalFloor
	}
	return v
}

// EstimatorState is the serializable snapshot of an Estimator, used by
// campaign checkpoint files so a resumed run continues with bit-identical
// EWMA state.
type EstimatorState struct {
	AlphaS, AlphaL float64
	PS, TS         float64
	PL, TL         float64
	DL             float64
	Rounds         int
}

// State snapshots the estimator.
func (e *Estimator) State() EstimatorState {
	return EstimatorState{
		AlphaS: e.alphaS, AlphaL: e.alphaL,
		PS: e.pS, TS: e.tS, PL: e.pL, TL: e.tL, DL: e.dL,
		Rounds: e.rounds,
	}
}

// Restore overwrites the estimator with a snapshot, in place.
func (e *Estimator) Restore(s EstimatorState) {
	*e = Estimator{
		alphaS: s.AlphaS, alphaL: s.AlphaL,
		pS: s.PS, tS: s.TS, pL: s.PL, tL: s.TL, dL: s.DL,
		rounds: s.Rounds,
	}
}

// EstimatorFromState rebuilds an estimator from a snapshot.
func EstimatorFromState(s EstimatorState) *Estimator {
	e := new(Estimator)
	e.Restore(s)
	return e
}

func ratio(p, t float64) float64 {
	if t <= 0 {
		return 0
	}
	v := p / t
	return clamp01(v)
}

// RatioEstimator is the A12w-era variant that smooths the ratio p/t
// directly instead of smoothing p and t separately. It consistently
// overestimates A (stop-on-first-positive makes p/t = 1 the most common
// observation), which is why the paper replaced it; it is retained for the
// ratioewma ablation of cmd/experiments.
type RatioEstimator struct {
	alpha float64
	a     float64
	init  bool
}

// NewRatioEstimator creates the variant estimator with gain alpha.
func NewRatioEstimator(initialA, alpha float64) *RatioEstimator {
	return &RatioEstimator{alpha: alpha, a: clamp01(initialA), init: true}
}

// Observe folds one round in.
func (e *RatioEstimator) Observe(p, t int) {
	if t <= 0 {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > t {
		p = t
	}
	obs := float64(p) / float64(t)
	e.a = e.alpha*obs + (1-e.alpha)*e.a
}

// Estimate returns the smoothed ratio.
func (e *RatioEstimator) Estimate() float64 { return e.a }
