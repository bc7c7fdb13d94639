package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// driveEstimator folds a bounded random observation stream into a fresh
// estimator and returns it. The stream shape (seed, length, per-round p/t)
// is entirely determined by the quick-generated inputs, so failures replay.
func driveEstimator(initialA float64, seed int64, rounds uint8) *Estimator {
	e := NewEstimator(initialA)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < int(rounds); i++ {
		t := rng.Intn(16) // 0..15, like the adaptive prober's 1..15 plus idle
		p := 0
		if t > 0 {
			p = rng.Intn(t + 1)
		}
		e.Observe(p, t)
	}
	return e
}

// TestEstimatorInvariants property-checks the §2.1.2 estimator bounds over
// arbitrary observation streams, including streams with zero usable rounds:
//
//	Âs, Âl, d̂l ∈ [0, 1]
//	Âo ≥ 0.1 (the operational floor)
//	Âo ≤ max(Âl, 0.1) — conservative except when the floor binds
func TestEstimatorInvariants(t *testing.T) {
	prop := func(initialA float64, seed int64, rounds uint8) bool {
		e := driveEstimator(initialA, seed, rounds)
		as, al, dl, ao := e.ShortTerm(), e.LongTerm(), e.State().DL, e.Operational()
		for _, v := range []float64{as, al, dl, ao} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if as < 0 || as > 1 || al < 0 || al > 1 || dl < 0 || dl > 1 {
			return false
		}
		if ao < OperationalFloor {
			return false
		}
		return ao <= math.Max(al, OperationalFloor)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorAllPositiveMonotone: a stream of all-positive rounds (p == t)
// drives Âs monotonically (non-strictly) toward 1 — each update moves the
// short-term estimate up, never past 1.
func TestEstimatorAllPositiveMonotone(t *testing.T) {
	prop := func(initialA float64, nProbes uint8, rounds uint8) bool {
		e := NewEstimator(initialA)
		n := int(nProbes)%15 + 1
		prev := e.ShortTerm()
		for i := 0; i < int(rounds); i++ {
			e.Observe(n, n)
			cur := e.ShortTerm()
			if cur < prev-1e-12 || cur > 1 {
				return false
			}
			prev = cur
		}
		// After plenty of rounds the estimate must be close to 1: the EWMA
		// residue of the initial seed decays as (1-αs)^rounds.
		if int(rounds) >= 100 && prev < 0.99 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorAllNegativeMonotone is the mirror image: all-negative rounds
// (p == 0) drive Âs monotonically toward 0.
func TestEstimatorAllNegativeMonotone(t *testing.T) {
	prop := func(initialA float64, nProbes uint8, rounds uint8) bool {
		e := NewEstimator(initialA)
		n := int(nProbes)%15 + 1
		prev := e.ShortTerm()
		for i := 0; i < int(rounds); i++ {
			e.Observe(0, n)
			cur := e.ShortTerm()
			if cur > prev+1e-12 || cur < 0 {
				return false
			}
			prev = cur
		}
		if int(rounds) >= 100 && prev > 0.01 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorStateRoundTripProperty: State/EstimatorFromState is lossless
// for any reachable estimator, and the restored copy evolves identically.
func TestEstimatorStateRoundTripProperty(t *testing.T) {
	prop := func(initialA float64, seed int64, rounds uint8, p, n uint8) bool {
		e := driveEstimator(initialA, seed, rounds)
		r := EstimatorFromState(e.State())
		if r.ShortTerm() != e.ShortTerm() || r.LongTerm() != e.LongTerm() ||
			r.State().DL != e.State().DL || r.Operational() != e.Operational() ||
			r.State().Rounds != e.State().Rounds {
			return false
		}
		// One more identical observation keeps them in lockstep bit for bit.
		nn := int(n)%15 + 1
		pp := int(p) % (nn + 1)
		e.Observe(pp, nn)
		r.Observe(pp, nn)
		return r.State() == e.State()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
