package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := RegIncBeta(1, 1, x); !near(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// I_x(2,2) = x^2 (3 - 2x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := x * x * (3 - 2*x)
		if got := RegIncBeta(2, 2, x); !near(got, want, 1e-12) {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := RegIncBeta(3.5, 1.25, 0.3) + RegIncBeta(1.25, 3.5, 0.7); !near(got, 1, 1e-12) {
		t.Errorf("symmetry check = %v, want 1", got)
	}
	if !math.IsNaN(RegIncBeta(-1, 1, 0.5)) || !math.IsNaN(RegIncBeta(1, 1, 1.5)) {
		t.Fatal("invalid domain should be NaN")
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := 0.5 + 5*r.Float64()
		b := 0.5 + 5*r.Float64()
		prev := -1.0
		for x := 0.0; x <= 1.0001; x += 0.05 {
			xx := math.Min(x, 1)
			v := RegIncBeta(a, b, xx)
			if v < prev-1e-12 || v < 0 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFDistReference(t *testing.T) {
	// Reference values from R: 1 - pf(q, d1, d2), the p-value of an observed F.
	cases := []struct {
		d1, d2, q, want float64
	}{
		{1, 1, 1, 0.5},      // pf(1,1,1) = 0.5
		{2, 10, 4.10, 0.05}, // qf(0.95, 2, 10) ≈ 4.102821
		{5, 20, 2.71, 0.05}, // qf(0.95, 5, 20) ≈ 2.71089
		{10, 10, 1, 0.5},    // symmetric
		{3, 7, 8.45, 0.01},  // qf(0.99, 3, 7) ≈ 8.4513
	}
	for _, c := range cases {
		got := FDist{D1: c.d1, D2: c.d2}.SF(c.q)
		if !near(got, c.want, 2e-3) {
			t.Errorf("F(%v,%v).SF(%v) = %v, want %v", c.d1, c.d2, c.q, got, c.want)
		}
	}
	f := FDist{D1: 4, D2: 9}
	if f.SF(0) != 1 || f.SF(-1) != 1 {
		t.Fatal("edge behavior wrong")
	}
	if got := (FDist{D1: 0, D2: 9}).SF(1); !math.IsNaN(got) {
		t.Fatalf("SF with zero degrees of freedom = %v, want NaN", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !near(got, p, 1e-8) {
			t.Errorf("round trip p=%v: z=%v back=%v", p, z, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("boundary quantiles should be infinite")
	}
}

func TestFitLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !near(fit.Slope, 2, 1e-12) || !near(fit.Intercept, 1, 1e-12) || !near(fit.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if _, err := FitLine(x, y[:3]); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("degenerate x should error")
	}
}

func TestFitOLSMatchesFitLine(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 40
	x := make([]float64, n)
	y := make([]float64, n)
	design := make([][]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = 2 + 3*x[i] + 0.1*r.NormFloat64()
		design[i] = []float64{1, x[i]}
	}
	line, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ols, err := FitOLS(design, y)
	if err != nil {
		t.Fatal(err)
	}
	if !near(ols.Coef[0], line.Intercept, 1e-9) || !near(ols.Coef[1], line.Slope, 1e-9) {
		t.Fatalf("OLS %v vs line %+v", ols.Coef, line)
	}
	if r2 := ols.SSR / ols.SST; !near(r2, line.R2, 1e-9) {
		t.Fatalf("R2 %v vs %v", r2, line.R2)
	}
}

func TestFitOLSErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := FitOLS([][]float64{{1, 0}}, []float64{1}); err == nil {
		t.Fatal("n <= p should error")
	}
	if _, err := FitOLS([][]float64{{1, 0}, {1}, {1, 2}}, []float64{1, 2, 3}); err == nil {
		t.Fatal("ragged design should error")
	}
	// Collinear design is singular.
	design := [][]float64{{1, 2, 4}, {1, 3, 6}, {1, 4, 8}, {1, 5, 10}}
	if _, err := FitOLS(design, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("collinear design should error")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !near(x[0], 1, 1e-12) || !near(x[1], 3, 1e-12) {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
	if _, err := SolveLinear([][]float64{{0, 0}, {0, 0}}, []float64{1, 2}); err == nil {
		t.Fatal("singular should error")
	}
}

func TestRegressionANOVADetectsEffect(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 50
	x := make([]float64, n)
	noiseOnly := make([]float64, n)
	effect := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		noiseOnly[i] = r.NormFloat64()
		effect[i] = 0.2*x[i] + r.NormFloat64()
	}
	resNull, err := RegressionANOVA(noiseOnly, x)
	if err != nil {
		t.Fatal(err)
	}
	resEff, err := RegressionANOVA(effect, x)
	if err != nil {
		t.Fatal(err)
	}
	if resNull.P < 0.01 {
		t.Fatalf("null p = %v, should not be tiny", resNull.P)
	}
	if resEff.P > 1e-6 {
		t.Fatalf("effect p = %v, should be tiny", resEff.P)
	}
}

func TestRegressionANOVAMatchesSimpleFTest(t *testing.T) {
	// For a single predictor, F = t^2 and F-test p equals two-sided t-test p;
	// also F = (n-2) R^2 / (1 - R^2).
	r := rand.New(rand.NewSource(13))
	n := 30
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = 0.5*x[i] + r.NormFloat64()
	}
	res, err := RegressionANOVA(y, x)
	if err != nil {
		t.Fatal(err)
	}
	fit, _ := FitLine(x, y)
	wantF := float64(n-2) * fit.R2 / (1 - fit.R2)
	if !near(res.F, wantF, 1e-8*wantF) {
		t.Fatalf("F = %v, want %v", res.F, wantF)
	}
}

func TestFactorialANOVATable(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	n := 80
	gdp := make([]float64, n)
	elec := make([]float64, n)
	junk := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		gdp[i] = 5000 + 45000*r.Float64()
		elec[i] = gdp[i]*0.3 + 2000*r.NormFloat64() // correlated with gdp
		junk[i] = r.NormFloat64()
		y[i] = 0.6 - gdp[i]/1e5 + 0.03*r.NormFloat64()
	}
	tab, err := FactorialANOVA(y, []Factor{
		{Name: "gdp", Values: gdp},
		{Name: "elec", Values: elec},
		{Name: "junk", Values: junk},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Names) != 3 || len(tab.P) != 3 {
		t.Fatalf("table shape wrong: %+v", tab)
	}
	if tab.P[0][0] > 1e-8 {
		t.Fatalf("gdp diagonal p = %v, should be tiny", tab.P[0][0])
	}
	if tab.P[2][2] < 0.001 {
		t.Fatalf("junk diagonal p = %v, should not be tiny", tab.P[2][2])
	}
	if tab.P[0][1] != tab.P[1][0] {
		t.Fatal("table should be symmetric")
	}
	if tab.P[0][1] > 1e-6 {
		t.Fatalf("gdp+elec joint p = %v, should be small", tab.P[0][1])
	}
	if _, err := FactorialANOVA(y, nil); err == nil {
		t.Fatal("no factors should error")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 0.95)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Fatalf("interval [%v, %v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval too wide: %v", hi-lo)
	}
	// Zero successes: lower bound 0, upper bound positive but small.
	lo, hi = WilsonInterval(0, 100, 0.95)
	if lo != 0 || hi <= 0 || hi > 0.08 {
		t.Fatalf("zero-success interval [%v, %v]", lo, hi)
	}
	// All successes mirrors it.
	lo, hi = WilsonInterval(100, 100, 0.95)
	if hi != 1 || lo < 0.92 {
		t.Fatalf("all-success interval [%v, %v]", lo, hi)
	}
	// Bigger n shrinks the interval.
	lo1, hi1 := WilsonInterval(5, 10, 0.95)
	lo2, hi2 := WilsonInterval(500, 1000, 0.95)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("larger samples should give tighter intervals")
	}
	if l, h := WilsonInterval(5, 0, 0.95); !math.IsNaN(l) || !math.IsNaN(h) {
		t.Fatal("degenerate inputs should be NaN")
	}
	if l, _ := WilsonInterval(-1, 10, 0.95); !math.IsNaN(l) {
		t.Fatal("negative successes should be NaN")
	}
}
