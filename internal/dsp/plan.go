package dsp

// Cached transform plans: the package's one FFT engine. A campaign
// classifies thousands of availability series of the same handful of
// lengths, and a transform's setup — bit-reversal order, stage twiddle
// factors, and for non-power-of-two lengths the whole Bluestein chirp and
// its FFT — depends on the length alone. A Plan computes all of that once
// per length and caches it process-wide, so the steady-state cost of a
// transform is the butterflies themselves plus caller-reusable scratch.
//
// Numerical contract: two plans of one length hold bit-identical tables
// (each twiddle comes from the same iterative w *= wBase recurrence, each
// chirp sample from the same i^2 mod 2n reduction), so eviction and
// rebuild never move a result. The spectrum constructors take the full
// complex path (realForwardExactInto), whose coefficient bits bench/golden
// hashes; the packed real-input path (RealForward on even lengths)
// evaluates the same DFT through a half-length transform and differs from
// it only at rounding level (well under 1e-12 relative; see plan_test.go).

import (
	"container/list"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan holds the precomputed state for transforms of one length. Plans are
// immutable after construction and safe for concurrent use by any number of
// goroutines; per-call mutable state lives in a Scratch.
type Plan struct {
	n int

	// r2 is the radix-2 machinery when n is a power of two.
	r2 *radix2Plan

	// Bluestein state when n is not a power of two: the convolution length
	// m = nextPow2(2n-1), its radix-2 plan, the forward chirp, and the
	// FFT of the chirp-conjugate pulse (bq).
	m     int
	mr2   *radix2Plan
	chirp []complex128
	bq    []complex128

	// Packed real-input state for even n: the half-length plan and the
	// untangling twiddles rw[k] = exp(-2*pi*i*k/n) for k = 0..n/2.
	half *Plan
	rw   []complex128
}

// radix2Plan caches the bit-reversal swap schedule and per-stage twiddle
// factors for one power-of-two length, in both transform directions.
type radix2Plan struct {
	n     int
	swaps []int32        // flattened (i, j) pairs with i < j
	fwd   [][]complex128 // twiddles per stage, forward (sign -1)
	inv   [][]complex128 // twiddles per stage, inverse (sign +1)
}

// defaultPlanCacheLimit bounds the plan cache at a size that comfortably
// covers a campaign's handful of series lengths (plus the Bluestein
// convolution lengths they pull in) while keeping a hostile mix of lengths —
// every block a different series size — from pinning unbounded table memory.
const defaultPlanCacheLimit = 64

// planLRU is the size-bounded plan cache: a mutex-guarded map into an LRU
// list, most recently used at the front. Evicting a plan is always safe —
// plans are immutable, callers (and parent plans, via mr2/half pointers)
// keep theirs alive, and a rebuilt plan is bit-identical by construction, so
// eviction costs only rebuild time, never determinism.
type planLRU struct {
	mu    sync.Mutex
	limit int // <= 0: unbounded
	ll    list.List
	byLen map[int]*list.Element
}

type planEntry struct {
	n    int
	plan *Plan
}

var planCache = planLRU{limit: defaultPlanCacheLimit, byLen: map[int]*list.Element{}}

func (c *planLRU) get(n int) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byLen[n]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*planEntry).plan
	}
	return nil
}

// insert adds a freshly built plan, keeping the incumbent if a concurrent
// builder won the race (plans of one length are interchangeable by
// construction, so the race is benign — and exercised under -race).
func (c *planLRU) insert(n int, p *Plan) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byLen[n]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*planEntry).plan
	}
	c.byLen[n] = c.ll.PushFront(&planEntry{n: n, plan: p})
	c.evictOver()
	return p
}

// evictOver drops least-recently-used entries past the limit. Callers hold mu.
func (c *planLRU) evictOver() {
	for c.limit > 0 && c.ll.Len() > c.limit {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.byLen, old.Value.(*planEntry).n)
		if ins := activeInstruments.Load(); ins != nil {
			ins.planEvictions.Inc()
		}
	}
}

func (c *planLRU) setLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictOver()
}

func (c *planLRU) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// SetPlanCacheLimit bounds how many plans PlanFor retains (default 64,
// evicting least-recently-used). A limit <= 0 removes the bound. Shrinking
// the limit evicts immediately; plans already handed out stay valid.
func SetPlanCacheLimit(n int) { planCache.setLimit(n) }

// PlanCacheSize reports how many plans the cache currently retains.
func PlanCacheSize() int { return planCache.size() }

// PlanFor returns the shared transform plan for series length n, building
// and caching it on first use. Campaign series lengths repeat, so after
// warm-up this is a mutex-guarded map hit with no allocation; the cache is
// LRU-bounded (SetPlanCacheLimit) so adversarial length mixes cost rebuild
// time, not unbounded memory.
func PlanFor(n int) *Plan {
	if n < 0 {
		panic(fmt.Sprintf("dsp: PlanFor(%d): negative length", n))
	}
	if p := planCache.get(n); p != nil {
		return p
	}
	// Build outside the cache lock: newPlan recurses into PlanFor for the
	// Bluestein convolution length and the packed-real half length.
	return planCache.insert(n, newPlan(n))
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	switch {
	case n <= 1:
		// Trivial transforms need no tables.
	case isPow2(n):
		p.r2 = newRadix2Plan(n)
	default:
		p.m = nextPow2(2*n - 1)
		// The convolution length is shared across many n; reuse its plan.
		p.mr2 = PlanFor(p.m).r2
		// chirp[i] = exp(-i*pi*i^2/n). Compute i^2 mod 2n to keep the
		// sincos argument small and precise for long series.
		p.chirp = make([]complex128, n)
		mod := 2 * n
		for i := 0; i < n; i++ {
			i2 := (i * i) % mod
			s, c := math.Sincos(-math.Pi * float64(i2) / float64(n))
			p.chirp[i] = complex(c, s)
		}
		b := make([]complex128, p.m)
		for i := 0; i < n; i++ {
			b[i] = cmplx.Conj(p.chirp[i])
		}
		for i := 1; i < n; i++ {
			b[p.m-i] = b[i]
		}
		p.mr2.transform(b, false)
		p.bq = b
	}
	if n > 1 && n%2 == 0 {
		p.half = PlanFor(n / 2)
		h := n / 2
		p.rw = make([]complex128, h+1)
		for k := 0; k <= h; k++ {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			p.rw[k] = complex(c, s)
		}
	}
	return p
}

// forwardInto computes the forward DFT of x into dst without
// instrumentation or sizing. Both must have length n; dst == x is allowed.
func (p *Plan) forwardInto(dst, x []complex128, s *Scratch) {
	switch {
	case p.n == 0:
	case p.n == 1:
		dst[0] = x[0]
	case p.r2 != nil:
		copy(dst, x)
		p.r2.transform(dst, false)
	default:
		p.bluesteinInto(dst, x, s, p.n)
	}
}

// bluesteinInto evaluates the chirp-z transform of x — an arbitrary-length
// DFT expressed as a convolution and evaluated with the power-of-two plan
// mr2 — writing the first outLen bins into dst. It reads x completely
// before writing dst, so dst == x is allowed.
func (p *Plan) bluesteinInto(dst, x []complex128, s *Scratch, outLen int) {
	a := s.complexA(p.m)
	for i := 0; i < p.n; i++ {
		a[i] = x[i] * p.chirp[i]
	}
	for i := p.n; i < p.m; i++ {
		a[i] = 0
	}
	p.mr2.transform(a, false)
	for i := range a {
		a[i] *= p.bq[i]
	}
	p.mr2.transform(a, true)
	invM := complex(1/float64(p.m), 0)
	for i := 0; i < outLen; i++ {
		dst[i] = a[i] * invM * p.chirp[i]
	}
}

// RealForward computes the one-sided spectrum of the real series x (which
// must have length N): bins 0..N/2 inclusive, the half every real-input
// consumer here inspects. dst is reused when it has capacity. For even
// lengths the transform packs x into a half-length complex series and
// untangles, halving the butterfly work; odd lengths stage through the
// complex path with output truncated to the kept bins.
func (p *Plan) RealForward(dst []complex128, x []float64, s *Scratch) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: RealForward: input length %d does not match plan length %d", len(x), p.n))
	}
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	keep := 0
	if p.n > 0 {
		keep = p.n/2 + 1
	}
	dst = growComplex(dst, keep)
	stop := observeFFT(p.n)
	p.realForwardInto(dst, x, s)
	if stop != nil {
		stop()
	}
	return dst
}

// realForwardInto computes bins 0..n/2 of the DFT of real x into dst
// (which must have length n/2+1 for n > 0).
func (p *Plan) realForwardInto(dst []complex128, x []float64, s *Scratch) {
	switch {
	case p.n == 0:
	case p.n == 1:
		dst[0] = complex(x[0], 0)
	case p.n%2 == 0:
		h := p.n / 2
		z := s.complexZ(h)
		for k := 0; k < h; k++ {
			z[k] = complex(x[2*k], x[2*k+1])
		}
		p.half.forwardInto(z, z, s)
		// Untangle: with Z the half-length transform of z[k] = x[2k] +
		// i*x[2k+1], the even- and odd-sample spectra are
		//   E[k] = (Z[k] + conj(Z[h-k]))/2
		//   O[k] = -i*(Z[k] - conj(Z[h-k]))/2
		// and X[k] = E[k] + W^k * O[k] for k = 0..h (indices mod h).
		for k := 0; k <= h; k++ {
			zk := z[k%h]
			zc := cmplx.Conj(z[(h-k)%h])
			even := (zk + zc) * 0.5
			odd := (zk - zc) * complex(0, -0.5)
			dst[k] = even + p.rw[k]*odd
		}
	default:
		z := s.complexZ(p.n)
		for i, v := range x {
			z[i] = complex(v, 0)
		}
		p.bluesteinInto(dst, z, s, p.n/2+1)
	}
}

// realForwardExactInto computes bins 0..n/2 of the DFT of real x into dst
// through the complex path only — no packed half-length shortcut — so the
// result is bit-identical to the full complex transform of the
// complexified series. NewSpectrumScratch uses it because same-seed study
// output, coefficient phases included, is pinned to those bits; RealForward
// is the cheaper packed form for callers without that contract.
func (p *Plan) realForwardExactInto(dst []complex128, x []float64, s *Scratch) {
	switch {
	case p.n == 0:
	case p.n == 1:
		dst[0] = complex(x[0], 0)
	case p.r2 != nil:
		z := s.complexZ(p.n)
		for i, v := range x {
			z[i] = complex(v, 0)
		}
		p.r2.transform(z, false)
		copy(dst, z[:len(dst)])
	default:
		z := s.complexZ(p.n)
		for i, v := range x {
			z[i] = complex(v, 0)
		}
		p.bluesteinInto(dst, z, s, len(dst))
	}
}

// newRadix2Plan precomputes the bit-reversal swap schedule and the
// per-stage twiddle tables for a power-of-two length n. The twiddles come
// from the iterative w *= wBase recurrence, not a Sincos per entry: study
// goldens are pinned to that rounding.
func newRadix2Plan(n int) *radix2Plan {
	p := &radix2Plan{n: n}
	if n <= 1 {
		return p
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	p.fwd = stageTwiddles(n, false)
	p.inv = stageTwiddles(n, true)
	return p
}

func stageTwiddles(n int, inverse bool) [][]complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	var stages [][]complex128
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		ws, wc := math.Sincos(step)
		wBase := complex(wc, ws)
		tw := make([]complex128, half)
		w := complex(1, 0)
		for off := 0; off < half; off++ {
			tw[off] = w
			w *= wBase
		}
		stages = append(stages, tw)
	}
	return stages
}

// transform runs the in-place iterative radix-2 Cooley-Tukey FFT over a
// (length n) using the cached tables. If inverse is true the conjugate
// transform is computed (no 1/n scaling).
func (p *radix2Plan) transform(a []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	for i := 0; i < len(p.swaps); i += 2 {
		x, y := p.swaps[i], p.swaps[i+1]
		a[x], a[y] = a[y], a[x]
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

// Scratch is the reusable workspace planned transforms stage through. It
// grows to the largest transform it has served and is reused afterwards,
// so a goroutine classifying same-length series allocates nothing per
// call. A Scratch must not be used concurrently; keep one per goroutine
// (or pass nil to borrow from a pool).
type Scratch struct {
	a []complex128 // Bluestein convolution work array (length m)
	z []complex128 // real-input staging / packed half-length series
	f []float64    // detrended-values staging for callers
}

// NewScratch returns an empty workspace; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) complexA(n int) []complex128 {
	s.a = growComplex(s.a, n)
	return s.a
}

func (s *Scratch) complexZ(n int) []complex128 {
	s.z = growComplex(s.z, n)
	return s.z
}

// Floats returns a length-n float64 buffer owned by the scratch, for
// callers staging derived series (e.g. detrended values) without
// allocating per call. Contents are unspecified on return.
func (s *Scratch) Floats(n int) []float64 {
	if cap(s.f) < n {
		s.f = make([]float64, n)
	}
	s.f = s.f[:n]
	return s.f
}

// growComplex returns b resized to length n, reallocating only when
// capacity is short. Contents are unspecified.
func growComplex(b []complex128, n int) []complex128 {
	if cap(b) < n {
		return make([]complex128, n)
	}
	return b[:n]
}

// scratchPool backs the entry points called with a nil Scratch: concurrent
// callers each borrow a warm workspace instead of allocating transform
// temporaries per call.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }
