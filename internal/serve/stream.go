package serve

// stream.go — the streaming diurnal classifier as a standalone, replayable
// component. The epoch engine (engine.go) consumes these types on its
// publish path; internal/agree replays recorded availability series through
// them offline to measure agreement with the batch FFT oracle. Both paths
// share the exact same float operation sequence, so an offline replay of a
// series is bit-identical to the live accumulation the engine would have
// performed — the property the resync/replay tests pin.

import (
	"math"
	"time"

	"sleepnet/internal/analysis"
)

// Basis is the DFT basis of the streaming classifier: the fundamental
// (1 cycle/day) and first-harmonic angles evaluated per round. It is pure
// derived state — two engines (or an engine and an offline replayer) built
// from the same campaign period produce identical bases.
type Basis struct {
	// CyclesPerRound is the fraction of a day one probing round covers.
	CyclesPerRound float64
}

// NewBasis derives the basis from the campaign's probing period.
func NewBasis(period time.Duration) Basis {
	return Basis{CyclesPerRound: period.Seconds() / (24 * 60 * 60)}
}

// Waves returns the DFT basis at round r for the fundamental (1 cycle/day)
// and first harmonic. Every consumer — incremental publication, resync
// rebuild, offline replay — calls this, so their float operation sequences,
// and therefore their results, are identical.
//
//lint:hotpath: evaluated per block per round on the publish path; pure math
func (b Basis) Waves(r int) (c1, s1, c2, s2 float64) {
	theta := -2 * math.Pi * b.CyclesPerRound * float64(r)
	return math.Cos(theta), math.Sin(theta), math.Cos(2 * theta), math.Sin(2 * theta)
}

// DefaultMinClassify is the default classification floor: one virtual day
// of rounds. Below the floor the classifier reports ClassUnknown.
func (b Basis) DefaultMinClassify() int {
	return int(math.Ceil(1 / b.CyclesPerRound))
}

// StreamAcc is one block's incremental spectral state: running DFT sums at
// the diurnal frequency and its first harmonic, plus the series moments —
// the seven sums that depend on the block's values. Everything else the
// classifier needs depends on the round index alone and lives once per
// shard in BasisSums. All updates happen in round order, so a state rebuilt
// from the committed series (resync or offline replay) is bit-identical to
// one accumulated incrementally — the property the crash-equivalence test
// pins.
type StreamAcc struct {
	Re1, Im1 float64
	Re2, Im2 float64
	Sum      float64
	SumRV    float64
	SumSq    float64
}

// Add folds round r's availability value into the accumulator against the
// basis waves for that round. Rounds arrive strictly in order; r is the
// round index (the BasisSums' count before its own Add for the round).
//
//lint:hotpath: folded per block per round on the publish path; pure arithmetic
func (a *StreamAcc) Add(v, r, c1, s1, c2, s2 float64) {
	a.Re1 += v * c1
	a.Im1 += v * s1
	a.Re2 += v * c2
	a.Im2 += v * s2
	a.Sum += v
	a.SumRV += r * v
	a.SumSq += v * v
}

// BasisSums is the part of the spectral state every block fed the same
// rounds shares: the round count and the sums of the bare basis waves. One
// per shard in the engine, one per Replayer; advanced once a round.
type BasisSums struct {
	// BRe/BIm accumulate the bare basis waves (Σ cos, Σ sin) and RRe/RIm
	// their first moments (Σ r·cos, Σ r·sin). The batch oracle removes the
	// mean and a least-squares linear trend before the FFT; a live campaign
	// never spans a whole number of days, so without the same correction
	// the series mean (and any drift) leaks straight into the diurnal bin:
	// Σ v·e^{-iωr} picks up mean·Σ e^{-iωr}. Carrying the basis sums lets
	// Classify subtract the fitted line's projection exactly, in closed
	// form — the streaming mirror of dsp.DetrendLinearInto.
	BRe1, BIm1 float64
	BRe2, BIm2 float64
	RRe1, RIm1 float64
	RRe2, RIm2 float64
	N          int32
}

// Add folds the next round's basis waves in; the round index is the current
// count.
//
//lint:hotpath: folded per shard per round on the publish path; pure arithmetic
func (b *BasisSums) Add(c1, s1, c2, s2 float64) {
	r := float64(b.N)
	b.BRe1 += c1
	b.BIm1 += s1
	b.BRe2 += c2
	b.BIm2 += s2
	b.RRe1 += r * c1
	b.RIm1 += r * s1
	b.RRe2 += r * c2
	b.RIm2 += r * s2
	b.N++
}

// Classify derives (class, phase) from a block's accumulated state and the
// basis sums over the same rounds. Pure and deterministic: same state, same
// answer. The engine's publish loop, its resync and the offline Replayer
// all call this one body.
//
// It evaluates the detrended series in closed form: the least-squares line
// a+b·r fit to the rounds so far is subtracted from the DFT sums and the
// variance, matching the batch pipeline's detrend-then-FFT preprocessing
// without revisiting the series. Classification then mirrors the batch
// rules as far as two tracked bins allow: strict needs the fundamental to
// dominate (half the residual variance and twice the first harmonic);
// relaxed needs a substantial combined share across the two bins. The batch
// rule's *relaxed* class has no amplitude floor — it fires whenever the
// full spectrum's peak happens to land at the fundamental, a rank
// competition against bins this classifier does not observe — so relaxed
// agreement with the batch oracle is inherently partial; the agreement
// harness (internal/agree) measures and gates exactly how partial.
//
//lint:hotpath: evaluated per block per round on the publish path; pure math
func (a *StreamAcc) Classify(b *BasisSums, minRounds int) (DiurnalClass, float64) {
	if int(b.N) < minRounds || b.N == 0 {
		return ClassUnknown, 0
	}
	n := float64(b.N)
	mean := a.Sum / n
	// Least-squares line over round indices 0..n-1: closed-form moments.
	rbar := (n - 1) / 2
	sumR2 := (n - 1) * n * (2*n - 1) / 6
	denom := sumR2 - n*rbar*rbar
	var slope float64
	if denom > 0 {
		slope = (a.SumRV - n*rbar*mean) / denom
	}
	intercept := mean - slope*rbar
	// Residual sum of squares of v - (intercept + slope·r), expanded so it
	// needs only the accumulated moments; clamp tiny negative rounding.
	ss := a.SumSq - 2*intercept*a.Sum - 2*slope*a.SumRV +
		n*intercept*intercept + 2*intercept*slope*n*rbar + slope*slope*sumR2
	if ss < 0 {
		ss = 0
	}
	variance := ss / n
	if variance < flatVariance {
		return ClassNonDiurnal, 0
	}
	// Detrended DFT sums: Σ(v - intercept - slope·r)·e^{-iωr}.
	re1 := a.Re1 - intercept*b.BRe1 - slope*b.RRe1
	im1 := a.Im1 - intercept*b.BIm1 - slope*b.RIm1
	re2 := a.Re2 - intercept*b.BRe2 - slope*b.RRe2
	im2 := a.Im2 - intercept*b.BIm2 - slope*b.RIm2
	phase := math.Atan2(im1, re1)
	amp1 := 2 * math.Hypot(re1, im1) / n
	amp2 := 2 * math.Hypot(re2, im2) / n
	// A sinusoid of amplitude A contributes A²/2 to the variance.
	share1 := amp1 * amp1 / 2 / variance
	share2 := amp2 * amp2 / 2 / variance
	switch {
	case share1 >= strictShare && amp1 >= 2*amp2:
		return ClassStrict, phase
	case share1+share2 >= relaxedShare:
		return ClassRelaxed, phase
	default:
		return ClassNonDiurnal, phase
	}
}

// startOfDayHour is the campaign start's UTC time-of-day in hours — the
// offset that maps a phase anchored at the campaign start onto UTC
// time-of-day.
func startOfDayHour(start time.Time) float64 {
	u := start.UTC()
	return float64(u.Hour()) + float64(u.Minute())/60 + float64(u.Second())/3600
}

// peakSleepUTC maps a streaming phase (anchored at the campaign start) to
// the UTC hours of peak activity and of sleep (peak + 12h). The epoch's read
// side and the offline replayer both use it, so live answers and replayed
// answers agree exactly.
func peakSleepUTC(phase, startHour float64) (peak, sleep float64) {
	peak = math.Mod(analysis.UTCPeakHour(phase)+startHour, 24)
	sleep = math.Mod(peak+12, 24)
	return peak, sleep
}

// Replayer feeds one block's availability series through the streaming
// classifier offline — exactly what the engine does live, without the epoch
// machinery: a shard of one block. internal/agree uses it to replay recorded
// campaigns against the batch FFT oracle.
type Replayer struct {
	basis       Basis
	acc         StreamAcc
	sums        BasisSums
	minClassify int
	startHour   float64
}

// NewReplayer builds a replayer for a campaign starting at start with the
// given probing period. minClassify <= 0 selects the engine's default floor
// (one virtual day of rounds).
func NewReplayer(start time.Time, period time.Duration, minClassify int) *Replayer {
	b := NewBasis(period)
	if minClassify <= 0 {
		minClassify = b.DefaultMinClassify()
	}
	return &Replayer{basis: b, minClassify: minClassify, startHour: startOfDayHour(start)}
}

// Push feeds the next round's availability value (round order is implicit:
// the first Push is round 0).
func (rp *Replayer) Push(v float64) {
	r := int(rp.sums.N)
	c1, s1, c2, s2 := rp.basis.Waves(r)
	rp.acc.Add(v, float64(r), c1, s1, c2, s2)
	rp.sums.Add(c1, s1, c2, s2)
}

// Acc returns copies of the block's accumulator and the basis sums (for
// bit-identity tests).
func (rp *Replayer) Acc() (StreamAcc, BasisSums) { return rp.acc, rp.sums }

// Classify returns the streaming class and phase for the rounds pushed so
// far. O(1); safe to call after every Push.
func (rp *Replayer) Classify() (DiurnalClass, float64) {
	return rp.acc.Classify(&rp.sums, rp.minClassify)
}

// PeakSleepUTC maps the current phase to UTC peak and sleep hours, the way
// the engine's read side does. Meaningful only when Classify reports a
// diurnal class.
func (rp *Replayer) PeakSleepUTC() (peak, sleep float64) {
	_, phase := rp.Classify()
	return peakSleepUTC(phase, rp.startHour)
}

// Resync discards the accumulated state and rebuilds it from the committed
// series, the way the engine's ResyncShard rebuilds a shard mirror after a
// crash. The rebuilt state is bit-identical to a fresh replayer fed the
// same values via Push — TestStreamResyncBitIdentical pins this.
func (rp *Replayer) Resync(series []float64) {
	rp.acc, rp.sums = StreamAcc{}, BasisSums{}
	for _, v := range series {
		rp.Push(v)
	}
}
