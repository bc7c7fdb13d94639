package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCleanDense(t *testing.T) {
	samples := []Sample{{0, 1}, {1, 2}, {2, 3}}
	got, st, err := Clean(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Filled != 0 || st.Duplicates != 0 || st.OutOfRange != 0 {
		t.Fatalf("stats = %+v", st)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCleanSingleGap(t *testing.T) {
	samples := []Sample{{0, 1}, {2, 3}}
	got, st, err := Clean(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Filled != 1 {
		t.Fatalf("Filled = %d, want 1", st.Filled)
	}
	if got[1] != 1 { // extrapolated from previous
		t.Fatalf("gap fill = %v, want 1", got[1])
	}
}

func TestCleanDuplicatesLatestWins(t *testing.T) {
	samples := []Sample{{0, 1}, {1, 5}, {1, 9}}
	got, st, err := Clean(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d", st.Duplicates)
	}
	if got[1] != 9 {
		t.Fatalf("duplicate resolution = %v, want 9 (most recent)", got[1])
	}
}

func TestCleanLeadingGapAndOutOfRange(t *testing.T) {
	samples := []Sample{{-1, 7}, {2, 4}, {99, 8}}
	got, st, err := Clean(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.OutOfRange != 2 {
		t.Fatalf("OutOfRange = %d", st.OutOfRange)
	}
	if got[0] != 4 || got[1] != 4 || got[3] != 4 {
		t.Fatalf("fills = %v", got)
	}
	if st.Filled != 3 {
		t.Fatalf("Filled = %d", st.Filled)
	}
}

func TestCleanErrors(t *testing.T) {
	if _, _, err := Clean(nil, 5); err == nil {
		t.Fatal("no samples should error")
	}
	if _, _, err := Clean([]Sample{{0, 1}}, 0); err == nil {
		t.Fatal("zero rounds should error")
	}
	if _, _, err := Clean([]Sample{{10, 1}}, 5); err == nil {
		t.Fatal("all out-of-range should error")
	}
}

func TestCleanPropertyNoNaNsAndLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		k := 1 + r.Intn(n)
		samples := make([]Sample, k)
		for i := range samples {
			samples[i] = Sample{Round: r.Intn(n), Value: r.Float64()}
		}
		out, _, err := Clean(samples, n)
		if err != nil || len(out) != n {
			return false
		}
		for _, v := range out {
			if math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mkSeries(start time.Time, n int) Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return New(start, DefaultRound, v)
}

func TestTrimToMidnightAlreadyAligned(t *testing.T) {
	start := time.Date(2013, 4, 25, 0, 0, 0, 0, time.UTC)
	// exactly 2 days of 660s rounds: 2*86400/660 = 261.8 -> 262 rounds covers
	// past midnight; use 265 rounds.
	s := mkSeries(start, 265)
	got, err := TrimToMidnightUTC(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(start) {
		t.Fatalf("start = %v, want %v", got.Start, start)
	}
	// Last midnight within series: start+2d = round index floor(172800/660)=261.8 -> 261
	if got.Len() != 261 {
		t.Fatalf("len = %d, want 261", got.Len())
	}
	lastEnd := got.TimeAt(got.Len())
	if lastEnd.After(start.Add(48 * time.Hour)) {
		t.Fatalf("series extends past final midnight: %v", lastEnd)
	}
}

func TestTrimToMidnightUnaligned(t *testing.T) {
	// Paper's A12w starts 2013-04-24 17:18 UTC.
	start := time.Date(2013, 4, 24, 17, 18, 0, 0, time.UTC)
	days := 35
	n := int(float64(days)*86400/660) + 80
	s := mkSeries(start, n)
	got, err := TrimToMidnightUTC(s)
	if err != nil {
		t.Fatal(err)
	}
	// Trimmed start must be within one round after a UTC midnight.
	st := got.Start.UTC()
	midnight := time.Date(st.Year(), st.Month(), st.Day(), 0, 0, 0, 0, time.UTC)
	if st.Sub(midnight) >= DefaultRound {
		t.Fatalf("trimmed start %v not near midnight", st)
	}
	// Trimmed end must be within one round before a UTC midnight.
	end := got.TimeAt(got.Len()).UTC()
	endMidnight := time.Date(end.Year(), end.Month(), end.Day(), 0, 0, 0, 0, time.UTC)
	if end.Sub(endMidnight) >= DefaultRound && endMidnight.Add(24*time.Hour).Sub(end) >= DefaultRound {
		t.Fatalf("trimmed end %v not near a midnight", end)
	}
	if got.Days() < 33 || got.Days() > 35 {
		t.Fatalf("trimmed days = %v", got.Days())
	}
}

func TestTrimTooShort(t *testing.T) {
	start := time.Date(2013, 4, 24, 17, 18, 0, 0, time.UTC)
	s := mkSeries(start, 10)
	if _, err := TrimToMidnightUTC(s); err == nil {
		t.Fatal("sub-day series should error")
	}
	if _, err := TrimToMidnightUTC(Series{Period: DefaultRound}); err == nil {
		t.Fatal("empty series should error")
	}
	if _, err := TrimToMidnightUTC(Series{Values: []float64{1}}); err == nil {
		t.Fatal("zero period should error")
	}
}

func TestSlopePerDay(t *testing.T) {
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	// Rising 0.01 per round; rounds per day = 86400/660.
	n := 1000
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.01 * float64(i)
	}
	s := New(start, DefaultRound, v)
	want := 0.01 * 86400 / 660
	if got := s.SlopePerDay(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("slope = %v, want %v", got, want)
	}
	if !math.IsNaN(New(start, DefaultRound, []float64{1}).SlopePerDay()) {
		t.Fatal("single sample slope should be NaN")
	}
}

func TestStationaryFlatWithNoise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	v := make([]float64, 2000)
	for i := range v {
		v[i] = 0.5 + 0.05*r.NormFloat64()
	}
	s := New(start, DefaultRound, v)
	// The paper's §2.2 stationarity bound: 1 address of a 256-address
	// block per day.
	if sl := s.SlopePerDay(); math.IsNaN(sl) || math.Abs(sl) > 1.0/256 {
		t.Fatalf("flat noisy series should be stationary, slope=%v", sl)
	}
}

func TestNearestDays(t *testing.T) {
	// 1832*660s = 13.995d: the midnight-trimmed 14-day series rounds up,
	// where a floor would pick bin 13.
	for n, want := range map[int]int{1832: 14, 1834: 14, 1767: 13, 1768: 14, 0: 0} {
		if got := NearestDays(n, DefaultRound); got != want {
			t.Errorf("NearestDays(%d) = %d, want %d", n, got, want)
		}
	}
	if NearestDays(5, 0) != 0 {
		t.Fatal("degenerate period")
	}
}

func TestSeriesAccessors(t *testing.T) {
	start := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	s := New(start, DefaultRound, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.TimeAt(2); !got.Equal(start.Add(2 * DefaultRound)) {
		t.Fatalf("TimeAt = %v", got)
	}
	if got := s.Duration(); got != 3*DefaultRound {
		t.Fatalf("Duration = %v", got)
	}
}
