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
