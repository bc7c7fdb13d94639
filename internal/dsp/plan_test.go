package dsp

import (
	"container/list"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// planTestLengths covers the trivial, power-of-two (radix-2), and
// non-power-of-two (Bluestein) regimes, even and odd, including the
// ~131-samples-per-day series lengths the pipeline actually produces.
var planTestLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 27, 64, 100, 128, 255, 256, 458, 459, 917, 918, 1000, 1024}

func maxAbs(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestPlanRealForwardMatchesReference holds the packed real-input path
// (and the odd-length staging path) to plan.go's numerical contract: within
// 1e-12, relative to the spectrum peak, of the exact complex path the
// spectrum constructor takes.
func TestPlanRealForwardMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	s := NewScratch()
	for _, n := range planTestLengths {
		x := randReal(r, n)
		want := NewSpectrumScratch(x, s).Coef
		got := PlanFor(n).RealForward(nil, x, s)
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d bins, want %d", n, len(got), len(want))
		}
		scale := maxAbs(want)
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-12*scale {
				t.Errorf("n=%d bin %d: real plan %v vs reference %v (|d|=%g)", n, k, got[k], want[k], d)
			}
		}
	}
}

// TestRealFFTMatchesDFT anchors RealForward against the O(n^2) definition
// on small lengths at a tolerance the property tests' long series cannot
// hold.
func TestRealFFTMatchesDFT(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 12, 17, 30} {
		x := randReal(r, n)
		want := oracle(x)
		got := PlanFor(n).RealForward(nil, x, nil)
		scale := maxAbs(want) + 1
		for k := range got {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-9*scale {
				t.Errorf("n=%d bin %d: RealForward %v vs DFT %v (|d|=%g)", n, k, got[k], want[k], d)
			}
		}
	}
}

// TestPlanScratchReuse checks that reusing one scratch across different
// lengths and directions cannot corrupt results (buffers are resized, not
// assumed clean).
func TestPlanScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	s := NewScratch()
	// Interleave large and small, even and odd, so every slot shrinks and
	// grows repeatedly.
	order := []int{1024, 5, 918, 2, 917, 1000, 3, 256}
	for pass := 0; pass < 3; pass++ {
		for _, n := range order {
			x := randReal(r, n)
			got := PlanFor(n).RealForward(nil, x, s)
			fresh := PlanFor(n).RealForward(nil, x, NewScratch())
			for k := range got {
				if got[k] != fresh[k] { //lint:allow floateq: identical code path must yield identical bits regardless of scratch history
					t.Fatalf("n=%d bin %d: scratch reuse changed result: %v vs %v", n, k, got[k], fresh[k])
				}
			}
		}
	}
}

// TestPlanCacheConcurrent hammers PlanFor and the transforms from many
// goroutines; run under -race this is the acceptance check that the plan
// cache and the immutable plans are safe for concurrent use.
func TestPlanCacheConcurrent(t *testing.T) {
	lengths := []int{64, 100, 917, 918, 1024}
	// Per-length reference computed serially first.
	refs := make(map[int][]complex128)
	inputs := make(map[int][]float64)
	r := rand.New(rand.NewSource(46))
	for _, n := range lengths {
		inputs[n] = randReal(r, n)
		refs[n] = PlanFor(n).RealForward(nil, inputs[n], nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewScratch()
			for it := 0; it < 20; it++ {
				n := lengths[(g+it)%len(lengths)]
				got := PlanFor(n).RealForward(nil, inputs[n], s)
				for k := range got {
					if got[k] != refs[n][k] { //lint:allow floateq: concurrent planned runs must be bit-identical to the serial run
						t.Errorf("goroutine %d n=%d bin %d: %v vs %v", g, n, k, got[k], refs[n][k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanForPanicsOnMismatch pins the misuse contract: a plan rejects
// inputs of the wrong length loudly instead of corrupting memory.
func TestPlanForPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RealForward with mismatched length should panic")
		}
	}()
	PlanFor(8).RealForward(nil, make([]float64, 7), nil)
}

// TestRealForwardDCAndNyquist spot-checks physically meaningful bins on a
// constant series: all energy in DC, Nyquist exactly zero.
func TestRealForwardDCAndNyquist(t *testing.T) {
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = 2.5
	}
	got := PlanFor(n).RealForward(nil, x, nil)
	if math.Abs(real(got[0])-2.5*float64(n)) > 1e-9 || math.Abs(imag(got[0])) > 1e-9 {
		t.Errorf("DC bin = %v, want %v", got[0], complex(2.5*float64(n), 0))
	}
	for k := 1; k <= n/2; k++ {
		if cmplx.Abs(got[k]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0 for constant input", k, got[k])
		}
	}
}

// TestPlanCacheLRUBound pins the cache's memory contract: the cache never
// holds more than the configured number of plans, eviction is
// least-recently-used, and an evicted length rebuilds to a bit-identical
// plan (so eviction can never change results, only cost rebuild time).
func TestPlanCacheLRUBound(t *testing.T) {
	defer SetPlanCacheLimit(defaultPlanCacheLimit)

	r := rand.New(rand.NewSource(99))
	in := randReal(r, 48)
	ref := PlanFor(48).RealForward(nil, in, nil)

	SetPlanCacheLimit(4)
	if got := PlanCacheSize(); got > 4 {
		t.Fatalf("shrinking the limit left %d plans cached", got)
	}
	// Power-of-two lengths keep the recursion shallow: each PlanFor(n) here
	// caches the plans for n and n/2.
	for _, n := range []int{256, 512, 1024, 2048, 4096} {
		PlanFor(n)
		if got := PlanCacheSize(); got > 4 {
			t.Fatalf("after PlanFor(%d): %d plans cached, limit 4", n, got)
		}
	}

	// An evicted plan rebuilds bit-identically.
	SetPlanCacheLimit(1)
	PlanFor(4096) // certainly evicts 48
	got := PlanFor(48).RealForward(nil, in, nil)
	for k := range got {
		if got[k] != ref[k] { //lint:allow floateq: rebuilt plans must be bit-identical to the evicted original
			t.Fatalf("bin %d after rebuild: %v, want %v", k, got[k], ref[k])
		}
	}

	// Unbounded mode accumulates freely.
	SetPlanCacheLimit(0)
	for n := 16; n <= 16+8; n++ {
		PlanFor(n)
	}
	if got := PlanCacheSize(); got < 9 {
		t.Fatalf("unbounded cache holds %d plans, want >= 9", got)
	}
}

// TestPlanLRUEvictionOrder pins the replacement policy on the cache
// structure itself (PlanFor's recursive sub-plan pulls make end-to-end
// order assertions ambiguous): a get refreshes recency, and insertion past
// the limit evicts the least recently used entry.
func TestPlanLRUEvictionOrder(t *testing.T) {
	c := planLRU{limit: 2, byLen: map[int]*list.Element{}}
	pa, pb, pc := &Plan{n: 1}, &Plan{n: 2}, &Plan{n: 3}
	c.insert(1, pa)
	c.insert(2, pb)
	c.get(1)        // 1 becomes most recent
	c.insert(3, pc) // evicts 2, the LRU
	if c.get(2) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.get(1) != pa || c.get(3) != pc {
		t.Fatal("recently used entries evicted")
	}
	// Racing insert keeps the incumbent.
	if got := c.insert(1, &Plan{n: 1}); got != pa {
		t.Fatal("racing insert replaced the incumbent plan")
	}
}

// TestPlanForHitPathAllocFree pins the steady-state cost of a cache hit:
// lock, map lookup, list bump — no heap.
func TestPlanForHitPathAllocFree(t *testing.T) {
	PlanFor(96) // warm
	avg := testing.AllocsPerRun(200, func() { PlanFor(96) })
	if avg != 0 {
		t.Fatalf("PlanFor cache hit allocates %.2f times, want 0", avg)
	}
}

// refTransform is the radix-2 stage loop as it ran before the stages were
// fused: the swap pass into bit-reversed order, then one stage at a time,
// each butterfly loading and storing its pair. It is the reference
// TestKernelMatchesStageLoop holds the fused kernel to, bit for bit.
func refTransform(p *radix2Plan, a []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	for i, j := range p.rev {
		if i < int(j) {
			a[i], a[j] = a[j], a[i]
		}
	}
	tws := p.fwd
	if inverse {
		tws = p.inv
	}
	si := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := tws[si]
		si++
		for start := 0; start < n; start += size {
			for off := 0; off < half; off++ {
				i, j := start+off, start+off+half
				t := a[j] * tw[off]
				a[j] = a[i] - t
				a[i] += t
			}
		}
	}
}

// refBluestein is bluesteinInto as it ran before the fused kernel, on
// complex x: the plain passes — pad x·chirp with zeros, forward, pointwise
// product with the chirp pulse's transform (rebuilt the same way), inverse,
// scale — each transform swap-then-stages through refTransform. It returns
// the forward and inverse work arrays with the n output bins.
func refBluestein(p *Plan, x []complex128) (fwd, inv, out []complex128) {
	n, m := p.n, p.m
	b := make([]complex128, m)
	for i := 0; i < n; i++ {
		b[i] = cmplx.Conj(p.chirp[i])
	}
	for i := 1; i < n; i++ {
		b[m-i] = b[i]
	}
	refTransform(p.mr2, b, false)
	fwd = make([]complex128, m)
	for i := 0; i < n; i++ {
		fwd[i] = x[i] * p.chirp[i]
	}
	refTransform(p.mr2, fwd, false)
	inv = make([]complex128, m)
	for i := range fwd {
		inv[i] = fwd[i] * b[i]
	}
	refTransform(p.mr2, inv, true)
	invM := complex(1/float64(m), 0)
	out = make([]complex128, n)
	for i := range out {
		out[i] = inv[i] * invM * p.chirp[i]
	}
	return fwd, inv, out
}

// refExact is NewSpectrumScratch's transform as it ran before the fused
// kernel: complexify, then refTransform for a power of two and
// refBluestein for any other length.
func refExact(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p := PlanFor(n)
	z := make([]complex128, n)
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	switch {
	case n == 1:
	case p.r2 != nil:
		refTransform(p.r2, z, false)
	default:
		_, _, z = refBluestein(p, z)
	}
	return z[:n/2+1]
}

// zeroHeavy returns n values from r with exact zeros, negative zeros and
// a zero-padded tail mixed in: the inputs on which a dropped or reordered
// add of zero shows up as a flipped sign bit.
func zeroHeavy(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch r.Intn(4) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = r.NormFloat64()
		}
	}
	for i := n - n/4; i < n; i++ {
		x[i] = 0
	}
	return x
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestKernelMatchesStageLoop pins the fused radix-2^2 kernel to the stage
// loop it replaced, bit for bit, on every power of two from 2 to 2^16 in
// both directions: random data (input 0), all negative zeros (1), and
// zero-heavy data with a padded tail (2).
func TestKernelMatchesStageLoop(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for n := 2; n <= 1<<16; n <<= 1 {
		p := PlanFor(n).r2
		re, im := zeroHeavy(r, n), zeroHeavy(r, n)
		inputs := [][]complex128{make([]complex128, n), make([]complex128, n), make([]complex128, n)}
		for i := 0; i < n; i++ {
			inputs[0][i] = complex(r.NormFloat64(), r.NormFloat64())
			inputs[1][i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
			inputs[2][i] = complex(re[i], im[i])
		}
		for in, x := range inputs {
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), x...)
				got := append([]complex128(nil), x...)
				refTransform(p, want, inverse)
				p.transform(got, inverse)
				for k := range want {
					if !sameBits(got[k], want[k]) {
						t.Fatalf("n=%d input %d inverse=%v bin %d: kernel %v, stage loop %v", n, in, inverse, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestSpectrumMatchesStageLoop holds NewSpectrumScratch — the gathers,
// the folded first stage and the fused kernel together — to the plain
// passes' coefficient bits, over planTestLengths plus the 7-day and
// 14-day series lengths (915 and 1832). ScratchSpectrum, whose bins are the
// one scratch's across every length, must give the same bits.
func TestSpectrumMatchesStageLoop(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	s := NewScratch()
	for _, n := range append(append([]int(nil), planTestLengths...), 915, 1832) {
		inputs := [][]float64{randReal(r, n), zeroHeavy(r, n), make([]float64, n)}
		for i := range inputs[2] {
			inputs[2][i] = math.Copysign(0, -1)
		}
		for in, x := range inputs {
			want := refExact(x)
			got := NewSpectrumScratch(x, s).Coef
			staged := ScratchSpectrum(x, s)
			if len(staged.Coef) != len(got) || len(staged.Amp) != len(got) || staged.N != n {
				t.Fatalf("n=%d: ScratchSpectrum has N %d, %d coefficients and %d amplitudes, want %d bins",
					n, staged.N, len(staged.Coef), len(staged.Amp), len(got))
			}
			for k := range want {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("n=%d input %d bin %d: %v, plain passes %v", n, in, k, got[k], want[k])
				}
				if !sameBits(staged.Coef[k], want[k]) {
					t.Fatalf("n=%d input %d bin %d: ScratchSpectrum %v, plain passes %v", n, in, k, staged.Coef[k], want[k])
				}
			}
		}
	}
}

// TestBluesteinMatchesStageLoop holds bluesteinInto's two work arrays and
// its output to the plain passes' bits on complex inputs. The forward array
// is where folding stage 1 into the gather shows: its even slots must hold
// v + 0, not v, and a negative zero in v makes the difference — which the
// rest of the transform can wash out of the output bins.
func TestBluesteinMatchesStageLoop(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	negZero := math.Copysign(0, -1)
	for _, n := range append(append([]int(nil), planTestLengths...), 915, 1832) {
		p := PlanFor(n)
		if p.mr2 == nil {
			continue
		}
		re, im := zeroHeavy(r, n), zeroHeavy(r, n)
		inputs := [][]complex128{make([]complex128, n), make([]complex128, n), make([]complex128, n)}
		for i := 0; i < n; i++ {
			inputs[0][i] = complex(r.NormFloat64(), r.NormFloat64())
			inputs[1][i] = complex(re[i], im[i])
			inputs[2][i] = complex(negZero, negZero)
		}
		s := NewScratch()
		for in, x := range inputs {
			wantF, wantI, wantO := refBluestein(p, x)
			a, b, got := s.complexA(p.m), s.complexZ(p.m), make([]complex128, n)
			p.bluesteinInto(got, x, a, b, n)
			for _, c := range []struct {
				name      string
				got, want []complex128
			}{{"forward", a, wantF}, {"inverse", b, wantI}, {"output", got, wantO}} {
				for k := range c.want {
					if !sameBits(c.got[k], c.want[k]) {
						t.Fatalf("n=%d input %d %s[%d]: %v, plain passes %v", n, in, c.name, k, c.got[k], c.want[k])
					}
				}
			}
		}
	}
}

// TestSpectrumScratchAllocs pins the warm exact transform at the 14-day
// series length: NewSpectrumScratch allocates the returned Spectrum (the
// struct and its Coef and Amp slices) and nothing else, and
// ScratchSpectrum allocates nothing.
func TestSpectrumScratchAllocs(t *testing.T) {
	x := randReal(rand.New(rand.NewSource(49)), 1832)
	s := NewScratch()
	NewSpectrumScratch(x, s)
	if avg := testing.AllocsPerRun(50, func() { NewSpectrumScratch(x, s) }); avg != 3 {
		t.Fatalf("warm NewSpectrumScratch allocates %.2f times, want 3 (Spectrum, Coef, Amp)", avg)
	}
	ScratchSpectrum(x, s)
	if avg := testing.AllocsPerRun(50, func() { ScratchSpectrum(x, s) }); avg != 0 {
		t.Fatalf("warm ScratchSpectrum allocates %.2f times, want 0", avg)
	}
}
