package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := map[float64]float64{0: 0, 1: 0.25, 2: 0.75, 2.5: 0.75, 3: 1, 99: 1}
	for v, want := range cases {
		if got := e.At(v); !near(got, want, 1e-12) {
			t.Errorf("ECDF.At(%v) = %v, want %v", v, got, want)
		}
	}
	if !math.IsNaN(NewECDF(nil).At(1)) {
		t.Fatal("empty ECDF should be NaN")
	}
}

func TestGrid2D(t *testing.T) {
	g, err := NewGrid2D(0, 1, 10, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	g.Add(0.05, 0.05) // (0,0)
	g.Add(0.95, 0.95) // (9,9)
	g.Add(0.5, 0.5)   // (5,5)
	g.Add(-1, 0.5)    // out
	g.Add(0.5, math.NaN())
	binned := 0
	for _, row := range g.Counts {
		for _, c := range row {
			binned += c
		}
	}
	if binned != 3 {
		t.Fatalf("%d pairs binned, want 3: the out-of-range two must land nowhere", binned)
	}
	if g.Counts[0][0] != 1 || g.Counts[9][9] != 1 || g.Counts[5][5] != 1 {
		t.Fatal("cells not recorded correctly")
	}
	if _, err := NewGrid2D(0, 1, 0, 0, 1, 5); err == nil {
		t.Fatal("zero dims should error")
	}
}

func TestKSTestSameDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := make([]float64, 400)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("same distribution rejected: D=%v p=%v", res.D, res.P)
	}
	if res.N1 != 400 || res.N2 != 500 {
		t.Fatalf("sizes = %d, %d", res.N1, res.N2)
	}
}

func TestKSTestDifferentDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 1 // shifted
	}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("shifted distribution not rejected: D=%v p=%v", res.D, res.P)
	}
	if res.D < 0.3 {
		t.Fatalf("D = %v, want large", res.D)
	}
}

func TestKSTestIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	res, err := KSTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 || res.P < 0.99 {
		t.Fatalf("identical: D=%v p=%v", res.D, res.P)
	}
}

func TestKSTestErrors(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}); err == nil {
		t.Fatal("empty sample should error")
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	// Classic example: with q=0.05 and these p-values, BH keeps the
	// smallest few.
	p := []float64{0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205, 0.5}
	mask := BenjaminiHochberg(p, 0.05)
	// Thresholds: k/m*q = 0.0056, 0.0111, 0.0167, 0.0222, 0.0278, ...
	// 0.041 > 4/9*0.05=0.0222 and 0.042 > 0.0278, so only the first two
	// survive... check 0.039 <= 3/9*0.05 = 0.0167? No. So k=2 (first two).
	want := []bool{true, true, false, false, false, false, false, false, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask = %v, want %v", mask, want)
		}
	}
	// Order independence: shuffle input, mask follows the values.
	p2 := []float64{0.5, 0.001, 0.06, 0.008}
	mask2 := BenjaminiHochberg(p2, 0.05)
	if mask2[0] || !mask2[1] || mask2[2] || !mask2[3] {
		t.Fatalf("mask2 = %v", mask2)
	}
	// Degenerate inputs.
	if m := BenjaminiHochberg(nil, 0.05); len(m) != 0 {
		t.Fatal("empty input")
	}
	if m := BenjaminiHochberg([]float64{0.01}, 0); m[0] {
		t.Fatal("q=0 should reject everything")
	}
	if m := BenjaminiHochberg([]float64{math.NaN(), 0.001}, 0.05); m[0] || !m[1] {
		t.Fatalf("NaN handling: %v", m)
	}
}
