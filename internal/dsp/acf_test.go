package dsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

func TestAutocorrelationPeriodic(t *testing.T) {
	// Period-20 sine: ACF peaks at lag 20.
	n := 2000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 20)
	}
	acf, err := Autocorrelation(x, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acf[0]-1) > 1e-9 {
		t.Fatalf("acf[0] = %v", acf[0])
	}
	lag, v, err := DominantLag(acf, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if lag != 20 && lag != 40 {
		t.Fatalf("dominant lag = %d, want 20 (or 40)", lag)
	}
	if v < 0.9 {
		t.Fatalf("peak acf = %v", v)
	}
}

func TestAutocorrelationWhiteNoiseFlat(t *testing.T) {
	// Deterministic pseudo-noise via a simple LCG.
	n := 4000
	x := make([]float64, n)
	state := uint64(12345)
	for i := range x {
		state = state*6364136223846793005 + 1442695040888963407
		x[i] = float64(state>>11)/(1<<53) - 0.5
	}
	acf, err := Autocorrelation(x, 100)
	if err != nil {
		t.Fatal(err)
	}
	for lag := 1; lag <= 100; lag++ {
		if math.Abs(acf[lag]) > 0.1 {
			t.Fatalf("acf[%d] = %v, want near zero", lag, acf[lag])
		}
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5, 5}
	acf, err := Autocorrelation(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 || acf[1] != 0 {
		t.Fatalf("constant acf = %v", acf)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation([]float64{1}, 0); err == nil {
		t.Fatal("single sample should error")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, 5); err == nil {
		t.Fatal("maxLag >= n should error")
	}
	if _, _, err := DominantLag([]float64{1, 0.5}, 0, 1); err == nil {
		t.Fatal("minLag 0 should error")
	}
	if _, _, err := DominantLag([]float64{1, 0.5}, 1, 5); err == nil {
		t.Fatal("out-of-range maxLag should error")
	}
}

// TestAutocorrelationPinned holds Autocorrelation to the output bits it had
// while it ran its own radix-2 loop (recorded at 065b081, before that loop
// was deleted for the plan's), on a power-of-two length, a 14-day
// campaign's 1,833 rounds and a prime: the ACF arm of the
// fftacf ablation (cmd/experiments) must not drift with the engine behind it.
func TestAutocorrelationPinned(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed uint64
		want string
	}{
		{2048, 1, "fcb1e8ecf00a943707ac18e046279725c8edcacb11434685b096a10c0dc34771"},
		{1833, 2, "7b73ff23d0fd97a7f1abd00c4363ec260c3852d87fc5acb0284e15f962ed1d29"},
		{1831, 3, "eaa88529ea945ec2c1792b04f7f66f34a0070627883031b3b747348ac1284e6d"},
	} {
		// A daily sine (131 rounds) under LCG noise, as in the white-noise test.
		x := make([]float64, c.n)
		state := c.seed
		for i := range x {
			state = state*6364136223846793005 + 1442695040888963407
			noise := float64(state>>11)/(1<<53) - 0.5
			x[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/131) + 0.2*noise
		}
		acf, err := Autocorrelation(x, c.n-1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range acf {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("n=%d seed=%d: acf bits hash to %s, want %s", c.n, c.seed, got, c.want)
		}
	}
}

func BenchmarkAutocorrelation4580(b *testing.B) {
	x := sine(4580, 35, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Autocorrelation(x, 200); err != nil {
			b.Fatal(err)
		}
	}
}
