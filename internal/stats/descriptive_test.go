package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasics(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestQuantileKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	cases := map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4}
	for q, want := range cases {
		if got := Quantile(x, q); !near(got, want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(Quantile(x, -0.1)) || !math.IsNaN(Quantile(x, 1.1)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("out-of-range quantiles should be NaN")
	}
	if got := Quantile([]float64{42}, 0.9); got != 42 {
		t.Fatalf("single-sample quantile = %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(x, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !near(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !near(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
	if !math.IsNaN(Pearson(x, []float64{1, 1, 1, 1, 1})) {
		t.Fatal("zero-variance Pearson should be NaN")
	}
	if !math.IsNaN(Pearson(x, x[:3])) {
		t.Fatal("mismatched Pearson should be NaN")
	}
}

func TestPearsonRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		p := Pearson(x, y)
		return p >= -1-1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPearsonReducesToPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 7}
	y := []float64{2, 1, 4, 3, 6, 8}
	w := []float64{1, 1, 1, 1, 1, 1}
	if got, want := WeightedPearson(x, y, w), Pearson(x, y); !near(got, want, 1e-12) {
		t.Fatalf("WeightedPearson = %v, Pearson = %v", got, want)
	}
}
