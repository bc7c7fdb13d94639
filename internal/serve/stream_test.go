package serve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// streamTestPeriod is the paper's 11-minute probing round.
const streamTestPeriod = 660 * time.Second

// sinusoid builds a diurnal availability series: mean + amp*cos(2π·cpd·t +
// shift) sampled per round, peaking at t = -shift/(2π·cpd).
func sinusoid(rounds int, period time.Duration, mean, amp, shiftRad float64) []float64 {
	cpr := period.Seconds() / 86400
	out := make([]float64, rounds)
	for r := range out {
		out[r] = mean + amp*math.Cos(2*math.Pi*cpr*float64(r)+shiftRad)
	}
	return out
}

// circDistHours is the circular distance between two times of day.
func circDistHours(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 24)
	if d > 12 {
		d = 24 - d
	}
	return d
}

// TestStreamClassifierBoundaries drives the replayable streaming classifier
// through the edges the agreement harness depends on: the MinClassifyRounds
// floor (exactly at vs one short), phase wrap-around near 0/24h UTC, and
// degenerate all-zero / constant series.
func TestStreamClassifierBoundaries(t *testing.T) {
	midnight := time.Date(2013, time.April, 25, 0, 0, 0, 0, time.UTC)
	lateStart := time.Date(2013, time.April, 24, 23, 30, 0, 0, time.UTC)

	cases := []struct {
		name        string
		start       time.Time
		minClassify int
		series      func(rounds int) []float64
		rounds      int
		wantClass   DiurnalClass
		// wantPeakUTC, when >= 0, checks the peak's UTC hour within tol
		// (circular).
		wantPeakUTC float64
		tol         float64
	}{
		{
			name:        "one round short of the floor stays unknown",
			start:       midnight,
			minClassify: 131,
			series: func(n int) []float64 {
				return sinusoid(n, streamTestPeriod, 0.5, 0.4, 0)
			},
			rounds:      130,
			wantClass:   ClassUnknown,
			wantPeakUTC: -1,
		},
		{
			name:        "classifies at exactly the floor",
			start:       midnight,
			minClassify: 131,
			series: func(n int) []float64 {
				return sinusoid(n, streamTestPeriod, 0.5, 0.4, 0)
			},
			rounds:      131,
			wantClass:   ClassStrict,
			wantPeakUTC: -1,
		},
		{
			name:        "all-zero series is non-diurnal",
			start:       midnight,
			minClassify: 10,
			series:      func(n int) []float64 { return make([]float64, n) },
			rounds:      200,
			wantClass:   ClassNonDiurnal,
			wantPeakUTC: -1,
		},
		{
			name:        "constant series is non-diurnal",
			start:       midnight,
			minClassify: 10,
			series: func(n int) []float64 {
				out := make([]float64, n)
				for i := range out {
					out[i] = 0.73
				}
				return out
			},
			rounds:      200,
			wantClass:   ClassNonDiurnal,
			wantPeakUTC: -1,
		},
		{
			name:        "peak at midnight UTC maps to hour 0",
			start:       midnight,
			minClassify: 131,
			series: func(n int) []float64 {
				// Peak at round 0, which is midnight UTC.
				return sinusoid(n, streamTestPeriod, 0.5, 0.4, 0)
			},
			rounds:      3 * 131,
			wantClass:   ClassStrict,
			wantPeakUTC: 0,
			tol:         0.25,
		},
		{
			name:        "campaign starting 23:30 wraps peak across midnight",
			start:       lateStart,
			minClassify: 131,
			series: func(n int) []float64 {
				// Peak at round 0 = 23:30 UTC; one hour later the true peak
				// would wrap past 24h — the mapping must stay in [0, 24).
				return sinusoid(n, streamTestPeriod, 0.5, 0.4, 0)
			},
			rounds:      3 * 131,
			wantClass:   ClassStrict,
			wantPeakUTC: 23.5,
			tol:         0.25,
		},
		{
			name:        "peak just before midnight from a shifted wave",
			start:       midnight,
			minClassify: 131,
			series: func(n int) []float64 {
				// shift +2π·(0.2/24): peak at t = -0.2h → 23.8h UTC.
				return sinusoid(n, streamTestPeriod, 0.5, 0.4, 2*math.Pi*0.2/24)
			},
			rounds:      3 * 131,
			wantClass:   ClassStrict,
			wantPeakUTC: 23.8,
			tol:         0.25,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := NewReplayer(tc.start, streamTestPeriod, tc.minClassify)
			for _, v := range tc.series(tc.rounds) {
				rp.Push(v)
			}
			class, _ := rp.Classify()
			if class != tc.wantClass {
				t.Fatalf("class = %v, want %v", class, tc.wantClass)
			}
			if tc.wantPeakUTC >= 0 {
				peak, sleep := rp.PeakSleepUTC()
				if peak < 0 || peak >= 24 || sleep < 0 || sleep >= 24 {
					t.Fatalf("peak %v / sleep %v outside [0, 24)", peak, sleep)
				}
				if d := circDistHours(peak, tc.wantPeakUTC); d > tc.tol {
					t.Errorf("peak UTC = %.3f, want %.3f (±%.2fh, circular); off by %.3f",
						peak, tc.wantPeakUTC, tc.tol, d)
				}
				if d := circDistHours(sleep, math.Mod(tc.wantPeakUTC+12, 24)); d > tc.tol {
					t.Errorf("sleep UTC = %.3f, want %.3f", sleep, math.Mod(tc.wantPeakUTC+12, 24))
				}
			}
		})
	}
}

// TestStreamClassifierFloorDefault pins the default classification floor to
// one virtual day of rounds (ceil(86400/660) = 131 for the paper's period).
func TestStreamClassifierFloorDefault(t *testing.T) {
	rp := NewReplayer(time.Time{}, streamTestPeriod, 0)
	if got := rp.minClassify; got != 131 {
		t.Fatalf("default minClassify = %d, want 131", got)
	}
}

// accBitsEqual compares two accumulators, and the basis sums they were
// accumulated against, for bit-identity, not approximate equality: resync
// and incremental accumulation share the exact float operation sequence, so
// nothing weaker than Float64bits equality is the contract.
func accBitsEqual(a StreamAcc, as BasisSums, b StreamAcc, bs BasisSums) bool {
	return math.Float64bits(a.Re1) == math.Float64bits(b.Re1) &&
		math.Float64bits(a.Im1) == math.Float64bits(b.Im1) &&
		math.Float64bits(a.Re2) == math.Float64bits(b.Re2) &&
		math.Float64bits(a.Im2) == math.Float64bits(b.Im2) &&
		math.Float64bits(as.BRe1) == math.Float64bits(bs.BRe1) &&
		math.Float64bits(as.BIm1) == math.Float64bits(bs.BIm1) &&
		math.Float64bits(as.BRe2) == math.Float64bits(bs.BRe2) &&
		math.Float64bits(as.BIm2) == math.Float64bits(bs.BIm2) &&
		math.Float64bits(as.RRe1) == math.Float64bits(bs.RRe1) &&
		math.Float64bits(as.RIm1) == math.Float64bits(bs.RIm1) &&
		math.Float64bits(as.RRe2) == math.Float64bits(bs.RRe2) &&
		math.Float64bits(as.RIm2) == math.Float64bits(bs.RIm2) &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.SumRV) == math.Float64bits(b.SumRV) &&
		math.Float64bits(a.SumSq) == math.Float64bits(b.SumSq) &&
		as.N == bs.N
}

// TestStreamResyncBitIdentical is the resync-equivalence property as a
// quick.Check: for random round counts and availability sequences, a
// replayer rebuilt via Resync (the crash-recovery path) holds state
// bit-identical to a fresh replayer fed the same rounds one Push at a time,
// and both classify identically at every floor.
func TestStreamResyncBitIdentical(t *testing.T) {
	start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
	prop := func(seed int64, roundsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		rounds := int(roundsRaw)%512 + 1
		series := make([]float64, rounds)
		for i := range series {
			series[i] = rng.Float64()
		}

		inc := NewReplayer(start, streamTestPeriod, 0)
		for _, v := range series {
			inc.Push(v)
		}
		res := NewReplayer(start, streamTestPeriod, 0)
		// Seed the resync target with garbage state first: Resync must fully
		// replace it, like a shard mirror rebuilt after a crash.
		res.Push(0.123)
		res.Push(0.987)
		res.Resync(series)

		ai, si := inc.Acc()
		ar, sr := res.Acc()
		if !accBitsEqual(ai, si, ar, sr) {
			return false
		}
		if si.N != sr.N {
			return false
		}
		for _, floor := range []int{1, rounds / 2, rounds, rounds + 1} {
			ci, pi := ai.Classify(&si, floor)
			cr, pr := ar.Classify(&sr, floor)
			if ci != cr || math.Float64bits(pi) != math.Float64bits(pr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
