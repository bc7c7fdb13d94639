package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: feeding a constant observation (p, t) converges every estimate
// to p/t.
func TestEstimatorConstantConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tt := 1 + r.Intn(15)
		p := r.Intn(tt + 1)
		want := float64(p) / float64(tt)
		e := NewEstimator(r.Float64())
		for i := 0; i < 3000; i++ {
			e.Observe(p, tt)
		}
		return math.Abs(e.ShortTerm()-want) < 1e-6 &&
			math.Abs(e.LongTerm()-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the diurnal classification is invariant under positive affine
// transforms of the series (availability rescaling must not change the
// verdict).
func TestDetectDiurnalAffineInvarianceProperty(t *testing.T) {
	base := synthSeries(10, diurnalWave)
	flat := synthSeries(10, func(_ float64, _ int) float64 { return 0.6 })
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := 0.1 + 3*r.Float64()
		b := -1 + 2*r.Float64()
		transform := func(x []float64) []float64 {
			out := make([]float64, len(x))
			for i, v := range x {
				out[i] = a*v + b
			}
			return out
		}
		r1, err := DetectDiurnal(base, 10)
		if err != nil {
			return false
		}
		r2, err := DetectDiurnal(transform(base), 10)
		if err != nil {
			return false
		}
		if r1.Class != r2.Class {
			return false
		}
		f1, err := DetectDiurnal(flat, 10)
		if err != nil {
			return false
		}
		f2, err := DetectDiurnal(transform(flat), 10)
		if err != nil {
			return false
		}
		return f1.Class == f2.Class
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the diurnal phase is equivariant under circular time shifts:
// delaying the series by s samples advances the fundamental's phase by
// 2*pi*s*k/n.
func TestDetectDiurnalPhaseShiftProperty(t *testing.T) {
	days := 10
	base := synthSeries(days, diurnalWave)
	n := len(base)
	r0, err := DetectDiurnal(base, days)
	if err != nil {
		t.Fatal(err)
	}
	k := r0.FundamentalBin
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := 1 + r.Intn(n-1)
		shifted := make([]float64, n)
		for i := range shifted {
			shifted[i] = base[(i+s)%n]
		}
		rs, err := DetectDiurnal(shifted, days)
		if err != nil || rs.FundamentalBin != k {
			return false
		}
		want := math.Mod(r0.Phase+2*math.Pi*float64(s)*float64(k)/float64(n)+3*math.Pi, 2*math.Pi) - math.Pi
		d := rs.Phase - want
		for d > math.Pi {
			d -= 2 * math.Pi
		}
		for d < -math.Pi {
			d += 2 * math.Pi
		}
		return math.Abs(d) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the spectrum's peak bin of a pure c-cycles-per-day tone recovers c
// for any integer c in the resolvable range.
func TestStrongestFrequencyRecoveryProperty(t *testing.T) {
	days := 10
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(8) // cycles per day
		vals := synthSeries(days, func(hour float64, day int) float64 {
			sec := float64(day)*86400 + hour*3600
			return 0.5 + 0.3*math.Cos(2*math.Pi*sec*float64(c)/86400)
		})
		got, err := strongestCyclesPerDay(vals, days)
		if err != nil {
			return false
		}
		return math.Abs(got-float64(c)) < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ACF detector never fires on iid noise, regardless of its
// variance or offset.
func TestACFNeverFiresOnNoiseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		off := r.Float64()
		sd := 0.01 + 0.2*r.Float64()
		nSamples := float64(roundsPerDay) * 10
		vals := make([]float64, int(nSamples))
		for i := range vals {
			vals[i] = off + sd*r.NormFloat64()
		}
		res, err := DetectDiurnalACF(vals, roundsPerDay)
		if err != nil {
			return false
		}
		return !res.Diurnal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
