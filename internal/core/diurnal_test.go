package core

import (
	"math"
	"math/rand"
	"testing"
)

// roundsPerDay matches the paper's 11-minute sampling.
const roundsPerDay = 86400.0 / 660.0

// synthSeries builds a days-long series sampled every 11 minutes by
// evaluating f(hourOfDay, dayIndex).
func synthSeries(days int, f func(hour float64, day int) float64) []float64 {
	n := int(float64(days) * roundsPerDay)
	out := make([]float64, n)
	for i := range out {
		sec := float64(i) * 660
		day := int(sec / 86400)
		hour := math.Mod(sec/3600, 24)
		out[i] = f(hour, day)
	}
	return out
}

func diurnalWave(hour float64, _ int) float64 {
	// Smooth day/night availability swing between 0.2 and 0.8 peaking at 14h.
	return 0.5 + 0.3*math.Cos(2*math.Pi*(hour-14)/24)
}

func TestDetectDiurnalStrict(t *testing.T) {
	vals := synthSeries(14, diurnalWave)
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != StrictDiurnal {
		t.Fatalf("class = %v, want strict (peak bin %d amp %.2f next %.2f)", res.Class, res.PeakBin, res.DiurnalAmp, res.NextAmp)
	}
	if res.FundamentalBin != 14 && res.FundamentalBin != 15 {
		t.Fatalf("fundamental = %d, want 14 or 15", res.FundamentalBin)
	}
	if !res.Class.IsDiurnal() {
		t.Fatal("IsDiurnal")
	}
}

func TestDetectDiurnalFlatNoise(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vals := synthSeries(14, func(_ float64, _ int) float64 {
		return 0.7 + 0.05*r.NormFloat64()
	})
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != NonDiurnal {
		t.Fatalf("flat noise classified %v", res.Class)
	}
}

func TestDetectDiurnalPhaseTracksOnset(t *testing.T) {
	// Two pure daily cosines with different peak hours must differ in phase
	// by the corresponding fraction of a day.
	mk := func(peak float64) []float64 {
		return synthSeries(14, func(hour float64, _ int) float64 {
			return 0.5 + 0.3*math.Cos(2*math.Pi*(hour-peak)/24)
		})
	}
	r1, err := DetectDiurnal(mk(6), 14)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DetectDiurnal(mk(12), 14)
	if err != nil {
		t.Fatal(err)
	}
	d := r2.Phase - r1.Phase
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	// Six hours later peak = quarter day = pi/2 phase lag.
	if math.Abs(math.Abs(d)-math.Pi/2) > 0.1 {
		t.Fatalf("phase difference = %v, want ±pi/2", d)
	}
}

func TestDetectDiurnalRelaxedOnHarmonic(t *testing.T) {
	// Energy dominated by the 2-cycles/day harmonic (e.g. lunch-dip
	// bimodal day): strict fails, relaxed catches it.
	vals := synthSeries(14, func(hour float64, _ int) float64 {
		return 0.5 + 0.25*math.Cos(2*2*math.Pi*hour/24) + 0.05*math.Cos(2*math.Pi*hour/24)
	})
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != RelaxedDiurnal {
		t.Fatalf("class = %v, want relaxed (peak %d)", res.Class, res.PeakBin)
	}
}

func TestDetectDiurnalWeakDailySignalIsRelaxed(t *testing.T) {
	// Daily signal strongest but a strong unrelated periodicity removes
	// the 2x dominance: relaxed, not strict.
	vals := synthSeries(14, func(hour float64, day int) float64 {
		sec := float64(day)*86400 + hour*3600
		other := 0.22 * math.Cos(2*math.Pi*sec/(5.37*3600)) // ~4.47 cyc/day
		return 0.5 + 0.25*math.Cos(2*math.Pi*hour/24) + other
	})
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != RelaxedDiurnal {
		t.Fatalf("class = %v (peak %d, diurnal %.1f, next %.1f)", res.Class, res.PeakBin, res.DiurnalAmp, res.NextAmp)
	}
}

func TestDetectDiurnalNonDailyPeriodicity(t *testing.T) {
	// A pure 5.5-hour cycle (DHCP-lease-like) is not diurnal at all.
	vals := synthSeries(14, func(hour float64, day int) float64 {
		sec := float64(day)*86400 + hour*3600
		return 0.5 + 0.3*math.Cos(2*math.Pi*sec/(5.5*3600))
	})
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != NonDiurnal {
		t.Fatalf("class = %v, want non-diurnal", res.Class)
	}
}

func TestDetectDiurnalSquareWave(t *testing.T) {
	// An 8h-on/16h-off square wave has strong harmonics but the fundamental
	// still dominates: must be at least relaxed, typically strict.
	vals := synthSeries(14, func(hour float64, _ int) float64 {
		if hour >= 9 && hour < 17 {
			return 0.9
		}
		return 0.2
	})
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Class.IsDiurnal() {
		t.Fatalf("square wave not detected: %v", res.Class)
	}
	if res.Class != StrictDiurnal {
		t.Logf("square wave relaxed (harmonics): fundamental %.1f, maxHarm %.1f", res.DiurnalAmp, res.MaxHarmonicAmp)
	}
}

func TestDetectDiurnalTrendDoesNotFool(t *testing.T) {
	// A strong continuous linear trend plus faint noise must not classify
	// diurnal. (A per-day staircase would be genuinely daily-periodic.)
	r := rand.New(rand.NewSource(8))
	vals := synthSeries(14, func(hour float64, day int) float64 {
		sec := float64(day)*86400 + hour*3600
		return 0.2 + 0.04*sec/86400 + 0.01*r.NormFloat64()
	})
	res, err := DetectDiurnal(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != NonDiurnal {
		t.Fatalf("trend classified %v", res.Class)
	}
}

func TestDetectDiurnalErrors(t *testing.T) {
	if _, err := DetectDiurnal(make([]float64, 100), 1); err == nil {
		t.Fatal("days < 2 should error")
	}
	if _, err := DetectDiurnal(make([]float64, 10), 14); err == nil {
		t.Fatal("short series should error")
	}
}

func TestDiurnalClassString(t *testing.T) {
	if NonDiurnal.String() != "non-diurnal" || StrictDiurnal.String() != "strict" || RelaxedDiurnal.String() != "relaxed" {
		t.Fatal("String()")
	}
}

// strongestCyclesPerDay is Fig 10's quantity as the study derives it: the
// strongest non-DC bin of the detector's spectrum over the days analysed.
func strongestCyclesPerDay(values []float64, days int) (float64, error) {
	res, err := DetectDiurnal(values, days)
	return float64(res.PeakBin) / float64(days), err
}

func TestStrongestCyclesPerDay(t *testing.T) {
	vals := synthSeries(14, diurnalWave)
	cpd, err := strongestCyclesPerDay(vals, 14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpd-1) > 0.1 {
		t.Fatalf("cycles/day = %v, want ~1", cpd)
	}
	vals2 := synthSeries(14, func(hour float64, day int) float64 {
		sec := float64(day)*86400 + hour*3600
		return 0.5 + 0.3*math.Cos(2*math.Pi*sec/(5.5*3600))
	})
	cpd2, err := strongestCyclesPerDay(vals2, 14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpd2-24/5.5) > 0.15 {
		t.Fatalf("cycles/day = %v, want ~%v", cpd2, 24/5.5)
	}
}

func TestDetect35DayWindow(t *testing.T) {
	// The A12w shape: 35 days, fundamental at bin 35.
	vals := synthSeries(35, diurnalWave)
	res, err := DetectDiurnal(vals, 35)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != StrictDiurnal {
		t.Fatalf("class = %v", res.Class)
	}
	if res.FundamentalBin != 35 && res.FundamentalBin != 36 {
		t.Fatalf("fundamental = %d", res.FundamentalBin)
	}
}

func BenchmarkDetectDiurnal14d(b *testing.B) {
	vals := synthSeries(14, diurnalWave)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DetectDiurnal(vals, 14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectDiurnal35d(b *testing.B) {
	vals := synthSeries(35, diurnalWave)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DetectDiurnal(vals, 35); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUTCPeakHourRange(t *testing.T) {
	for _, ph := range []float64{-3.14, -1, 0, 1, 3.14, 6, -6} {
		h := UTCPeakHour(ph)
		if h < 0 || h >= 24 {
			t.Fatalf("UTCPeakHour(%v) = %v", ph, h)
		}
	}
}
