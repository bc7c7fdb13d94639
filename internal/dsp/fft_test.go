package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func complexNear(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func randReal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// sine synthesizes amp*sin(2*pi*cycles*t/n + phase) sampled at t=0..n-1.
func sine(n int, cycles, amp, phase float64) []float64 {
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = amp * math.Sin(2*math.Pi*cycles*float64(t)/float64(n)+phase)
	}
	return out
}

// oracle is the full DFT of the real series x by the O(n^2) definition.
func oracle(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return DFT(cx)
}

// checkAgainstDFT holds both planned entry points — the exact path behind
// NewSpectrumScratch and the packed RealForward — to the oracle's bins
// 0..n/2 on one random series of length n.
func checkAgainstDFT(t *testing.T, r *rand.Rand, n int, tol float64) {
	t.Helper()
	x := randReal(r, n)
	want := oracle(x)
	keep := 0
	if n > 0 {
		keep = n/2 + 1
	}
	exact := NewSpectrumScratch(x, nil)
	packed := PlanFor(n).RealForward(nil, x, nil)
	if exact.N != n || len(exact.Coef) != keep || len(exact.Amp) != keep || len(packed) != keep {
		t.Fatalf("n=%d: N=%d with %d/%d/%d bins, want %d", n, exact.N, len(exact.Coef), len(exact.Amp), len(packed), keep)
	}
	for k := 0; k < keep; k++ {
		if !complexNear(exact.Coef[k], want[k], tol) {
			t.Fatalf("n=%d bin %d: spectrum=%v DFT=%v", n, k, exact.Coef[k], want[k])
		}
		if !complexNear(packed[k], want[k], tol) {
			t.Fatalf("n=%d bin %d: RealForward=%v DFT=%v", n, k, packed[k], want[k])
		}
		if math.Abs(exact.Amp[k]-cmplx.Abs(want[k])) > tol {
			t.Fatalf("n=%d bin %d: Amp=%v |DFT|=%v", n, k, exact.Amp[k], cmplx.Abs(want[k]))
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	checkAgainstDFT(t, rand.New(rand.NewSource(0)), 0, 0)
}

func TestFFTSingle(t *testing.T) {
	s := NewSpectrumScratch([]float64{3}, nil)
	got := PlanFor(1).RealForward(nil, []float64{3}, nil)
	if len(s.Coef) != 1 || s.Coef[0] != 3 || len(got) != 1 || got[0] != 3 {
		t.Fatalf("single sample: spectrum %v, RealForward %v, want [3]", s.Coef, got)
	}
}

func TestFFTMatchesDFTPowersOfTwo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		checkAgainstDFT(t, r, n, 1e-7*float64(n))
	}
}

// 1831 is a prime near a 14-day campaign's length; 1833 is that campaign's
// round count and 1832 what TrimToMidnightUTC leaves of one begun at
// midnight.
func TestFFTMatchesDFTArbitraryLengths(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 9, 12, 17, 33, 100, 255, 1000, 1831, 1832, 1833} {
		checkAgainstDFT(t, r, n, 1e-6*float64(n))
	}
}

// TestIFFTInvertsFFT pins the one inverse left: the radix-2 plan's
// conjugate direction, which Bluestein's convolution and Autocorrelation
// run, undoes its forward direction up to the 1/n it leaves to the caller.
func TestIFFTInvertsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 16, 128, 4096} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		a := append([]complex128(nil), x...)
		r2 := PlanFor(n).r2
		r2.transform(a, false)
		r2.transform(a, true)
		for i := range x {
			if back := a[i] / complex(float64(n), 0); !complexNear(back, x[i], 1e-7*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, back, x[i])
			}
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	for _, n := range []int{5, 8, 12} { // Bluestein, radix-2, packed
		x := randReal(rand.New(rand.NewSource(int64(n))), n)
		orig := append([]float64(nil), x...)
		NewSpectrumScratch(x, nil)
		PlanFor(n).RealForward(nil, x, nil)
		for i := range x {
			if x[i] != orig[i] {
				t.Fatalf("n=%d: transform modified input at %d", n, i)
			}
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(60)
		x := randReal(rr, n)
		y := randReal(rr, n)
		a := rr.NormFloat64()
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		p := PlanFor(n)
		fx, fy, fs := p.RealForward(nil, x, nil), p.RealForward(nil, y, nil), p.RealForward(nil, sum, nil)
		ex, ey, es := NewSpectrumScratch(x, nil).Coef, NewSpectrumScratch(y, nil).Coef, NewSpectrumScratch(sum, nil).Coef
		for k := range fs {
			if !complexNear(fs[k], complex(a, 0)*fx[k]+fy[k], 1e-6*float64(n)) ||
				!complexNear(es[k], complex(a, 0)*ex[k]+ey[k], 1e-6*float64(n)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Parseval: sum |x|^2 == (1/n) sum |X|^2, the sum over all n bins. For
	// real x the bins above n/2 mirror those below, so every one-sided bin
	// counts twice except DC and, for even n, Nyquist.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(200)
		x := randReal(rr, n)
		var tEnergy float64
		for _, v := range x {
			tEnergy += v * v
		}
		for _, X := range [][]complex128{NewSpectrumScratch(x, nil).Coef, PlanFor(n).RealForward(nil, x, nil)} {
			var fEnergy float64
			for k, c := range X {
				e := real(c)*real(c) + imag(c)*imag(c)
				if k != 0 && 2*k != n {
					e *= 2
				}
				fEnergy += e
			}
			fEnergy /= float64(n)
			if math.Abs(tEnergy-fEnergy) >= 1e-6*(1+tEnergy) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRealFFTConjugateSymmetry is why one side is enough: the oracle's
// upper bins are the conjugates of the one-sided bins the planned
// transforms return, and the self-conjugate bins (DC, Nyquist) are real.
func TestRealFFTConjugateSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 9, 100, 101} {
		x := randReal(r, n)
		full := oracle(x)
		tol := 1e-7 * float64(n)
		for _, X := range [][]complex128{NewSpectrumScratch(x, nil).Coef, PlanFor(n).RealForward(nil, x, nil)} {
			for k := 1; k < len(X); k++ {
				if !complexNear(X[k], cmplx.Conj(full[n-k]), tol) {
					t.Fatalf("n=%d bin %d not the conjugate of bin %d", n, k, n-k)
				}
			}
			if math.Abs(imag(X[0])) > tol || (n%2 == 0 && math.Abs(imag(X[n/2])) > tol) {
				t.Fatalf("n=%d: DC %v or Nyquist %v not real", n, X[0], X[len(X)-1])
			}
		}
	}
}

func TestSinePeakDetection(t *testing.T) {
	// A pure 14-cycle sine over 1831 samples must put its energy in bin 14.
	n := 1831
	x := sine(n, 14, 1, 0.3)
	s := NewSpectrumScratch(x, nil)
	bin, amp := s.Peak()
	if bin != 14 {
		t.Fatalf("peak bin = %d, want 14", bin)
	}
	// Energy of a unit sine in its bin is n/2.
	if math.Abs(amp-float64(n)/2) > 1 {
		t.Fatalf("peak amp = %v, want ~%v", amp, float64(n)/2)
	}
}

func TestSpectrumPhaseRecovery(t *testing.T) {
	// sin(theta + p) = cos shifted; phase of the FFT coefficient at the bin
	// should vary linearly with p. Verify relative phase differences.
	n := 2048
	p1, p2 := 0.5, 1.7
	s1 := NewSpectrumScratch(sine(n, 8, 1, p1), nil)
	s2 := NewSpectrumScratch(sine(n, 8, 1, p2), nil)
	d := s2.Phase(8) - s1.Phase(8)
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	if math.Abs(d-(p2-p1)) > 1e-6 {
		t.Fatalf("phase difference = %v, want %v", d, p2-p1)
	}
}

func TestPeakExcluding(t *testing.T) {
	n := 512
	x := make([]float64, n)
	a := sine(n, 10, 3, 0)
	b := sine(n, 25, 2, 0)
	for i := range x {
		x[i] = a[i] + b[i]
	}
	s := NewSpectrumScratch(x, nil)
	bin, _ := s.Peak()
	if bin != 10 {
		t.Fatalf("peak = %d, want 10", bin)
	}
	bin2, _ := s.PeakExcluding(func(k int) bool { return k == 10 })
	if bin2 != 25 {
		t.Fatalf("second peak = %d, want 25", bin2)
	}
}

func TestIsHarmonicOf(t *testing.T) {
	cases := []struct {
		k, f, tol int
		want      bool
	}{
		{28, 14, 0, true},
		{42, 14, 0, true},
		{29, 14, 1, true},
		{30, 14, 1, false},
		{14, 14, 0, false}, // fundamental is not its own harmonic
		{7, 14, 0, false},
		{15, 14, 1, false}, // within tol of fundamental, not a multiple >= 2
		{0, 14, 0, false},
		{28, 0, 0, false},
	}
	for _, c := range cases {
		if got := IsHarmonicOf(c.k, c.f, c.tol); got != c.want {
			t.Errorf("IsHarmonicOf(%d,%d,%d) = %v, want %v", c.k, c.f, c.tol, got, c.want)
		}
	}
}

func TestDetrendLinearRemovesLine(t *testing.T) {
	n := 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	d := DetrendLinearInto(make([]float64, n), x)
	for i, v := range d {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("residual at %d = %v, want 0", i, v)
		}
	}
}

func TestDetrendLinearPreservesSine(t *testing.T) {
	n := 1024
	sig := sine(n, 12, 1, 0)
	x := make([]float64, n)
	for i := range x {
		x[i] = sig[i] + 5 + 0.01*float64(i)
	}
	s := NewSpectrumScratch(DetrendLinearInto(x, x), nil)
	bin, _ := s.Peak()
	if bin != 12 {
		t.Fatalf("peak after linear detrend = %d, want 12", bin)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkSpectrumPow2_4096(b *testing.B) {
	x := randReal(rand.New(rand.NewSource(9)), 4096)
	s := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSpectrumScratch(x, s)
	}
}

// benchSpectrum times the exact transform the detector takes, warm, on a
// random series of length n.
func benchSpectrum(b *testing.B, n int, seed int64) {
	x := randReal(rand.New(rand.NewSource(seed)), n)
	s := NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSpectrumScratch(x, s)
	}
}

// 35 days of 11-minute rounds ≈ 4580 samples: the A12w shape.
func BenchmarkSpectrumBluestein_4580(b *testing.B) { benchSpectrum(b, 4580, 10) }

// The 14-day study's trimmed series (1832 samples): the length
// bench's dsp.fft_ns_per_series times on the packed path instead.
func BenchmarkSpectrumBluestein_1832(b *testing.B) { benchSpectrum(b, 1832, 11) }

// The 7-day validation series (915 samples).
func BenchmarkSpectrumBluestein_915(b *testing.B) { benchSpectrum(b, 915, 12) }
