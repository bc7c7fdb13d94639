package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// simulateRounds feeds the estimator with stop-on-first-positive
// observations from a block of availability a, and returns the final
// estimator.
func simulateRounds(e *Estimator, a float64, rounds int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < rounds; i++ {
		p, t := 0, 0
		for t < 15 {
			t++
			if r.Float64() < a {
				p = 1
				break
			}
		}
		e.Observe(p, t)
	}
}

func TestEstimatorConvergesToTrueA(t *testing.T) {
	for _, a := range []float64{0.2, 0.5, 0.735, 0.9} {
		e := NewEstimator(0.5)
		simulateRounds(e, a, 4000, 42)
		if got := e.ShortTerm(); math.Abs(got-a) > 0.12 {
			t.Errorf("A=%v: ShortTerm = %v (noisy but should be near)", a, got)
		}
		if got := e.LongTerm(); math.Abs(got-a) > 0.05 {
			t.Errorf("A=%v: LongTerm = %v", a, got)
		}
	}
}

func TestEstimatorConvergesFromBadPrior(t *testing.T) {
	// Historical estimate badly wrong (0.05 when truth is 0.8).
	e := NewEstimator(0.05)
	simulateRounds(e, 0.8, 2000, 7)
	if got := e.LongTerm(); math.Abs(got-0.8) > 0.05 {
		t.Fatalf("LongTerm = %v, want ~0.8 despite bad prior", got)
	}
}

func TestOperationalUnderestimates(t *testing.T) {
	// After convergence, Âo should be at or below the true A nearly always.
	const a = 0.6
	e := NewEstimator(0.5)
	r := rand.New(rand.NewSource(9))
	warmup := 500
	under, total := 0, 0
	for i := 0; i < 4000; i++ {
		p, tt := 0, 0
		for tt < 15 {
			tt++
			if r.Float64() < a {
				p = 1
				break
			}
		}
		e.Observe(p, tt)
		if i >= warmup {
			total++
			if e.Operational() <= a {
				under++
			}
		}
	}
	frac := float64(under) / float64(total)
	if frac < 0.9 {
		t.Fatalf("operational under true A only %.1f%% of rounds, want >= 90%%", frac*100)
	}
}

func TestOperationalFloor(t *testing.T) {
	e := NewEstimator(0)
	for i := 0; i < 100; i++ {
		e.Observe(0, 15)
	}
	if got := e.Operational(); got != OperationalFloor {
		t.Fatalf("Operational = %v, want floor %v", got, OperationalFloor)
	}
}

func TestEstimatorIgnoresDegenerateObservations(t *testing.T) {
	e := NewEstimator(0.5)
	before := e.ShortTerm()
	e.Observe(1, 0)
	e.Observe(-1, 0)
	if e.ShortTerm() != before || e.State().Rounds != 0 {
		t.Fatal("t=0 observations must be ignored")
	}
	// p out of range is clamped.
	e.Observe(5, 2)
	if e.ShortTerm() > 1 {
		t.Fatalf("clamping failed: %v", e.ShortTerm())
	}
	e2 := NewEstimator(0.5)
	e2.Observe(-3, 2)
	if e2.ShortTerm() < 0 {
		t.Fatalf("negative p clamping failed: %v", e2.ShortTerm())
	}
}

func TestEstimatorBoundsProperty(t *testing.T) {
	// Estimates always stay in [0, 1] whatever the observation stream.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEstimator(r.Float64())
		for i := 0; i < 200; i++ {
			tt := 1 + r.Intn(15)
			p := r.Intn(tt + 1)
			e.Observe(p, tt)
			for _, v := range []float64{e.ShortTerm(), e.LongTerm(), e.Operational()} {
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShortTermAdaptsFasterThanLongTerm(t *testing.T) {
	e := NewEstimator(0.9)
	// Block abruptly drops to A = 0.1.
	simulateRounds(e, 0.1, 60, 3)
	if !(e.ShortTerm() < e.LongTerm()) {
		t.Fatalf("after drop: short %v should lead long %v downward", e.ShortTerm(), e.LongTerm())
	}
}

func TestRatioEstimatorOverestimates(t *testing.T) {
	// The A12w variant smooths p/t directly; with stop-on-first-positive
	// sampling it must overestimate mid-range availabilities, while the
	// separate-EWMA estimator does not.
	const a = 0.5
	good := NewEstimator(a)
	bad := NewRatioEstimator(a, AlphaShort)
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 6000; i++ {
		p, tt := 0, 0
		for tt < 15 {
			tt++
			if r.Float64() < a {
				p = 1
				break
			}
		}
		good.Observe(p, tt)
		bad.Observe(p, tt)
	}
	if got := bad.Estimate(); got < a+0.1 {
		t.Fatalf("ratio estimator = %v, expected clear overestimate of %v", got, a)
	}
	if got := good.LongTerm(); math.Abs(got-a) > 0.05 {
		t.Fatalf("separate estimator = %v, want ~%v", got, a)
	}
}

func TestNewEstimatorClampsPrior(t *testing.T) {
	if got := NewEstimator(2).ShortTerm(); got != 1 {
		t.Fatalf("prior clamp high: %v", got)
	}
	if got := NewEstimator(-1).ShortTerm(); got != 0 {
		t.Fatalf("prior clamp low: %v", got)
	}
	if got := NewEstimator(math.NaN()).ShortTerm(); got != 0 {
		t.Fatalf("prior NaN: %v", got)
	}
}

func TestCustomGains(t *testing.T) {
	fast := NewEstimatorWithGains(0.9, 0.5, 0.01)
	slow := NewEstimatorWithGains(0.9, 0.01, 0.01)
	for i := 0; i < 20; i++ {
		fast.Observe(0, 15)
		slow.Observe(0, 15)
	}
	if !(fast.ShortTerm() < slow.ShortTerm()) {
		t.Fatalf("higher gain should adapt faster: %v vs %v", fast.ShortTerm(), slow.ShortTerm())
	}
}

func TestDeviationTracksVolatility(t *testing.T) {
	stable := NewEstimator(0.5)
	volatile := NewEstimator(0.5)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		stable.Observe(1, 2) // constant 0.5
		if r.Float64() < 0.5 {
			volatile.Observe(1, 1)
		} else {
			volatile.Observe(0, 15)
		}
	}
	if !(volatile.State().DL > stable.State().DL) {
		t.Fatalf("deviation should reflect volatility: %v vs %v", volatile.State().DL, stable.State().DL)
	}
}
