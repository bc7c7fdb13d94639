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
// rebuild never move a result. The transform is plain decimation-in-time
// radix-2 and Bluestein arithmetic, evaluated in fewer passes: the kernel
// (radix2Plan.butterflies) runs two stages per pass, Bluestein gathers its
// inputs straight into bit-reversed order with its first stage folded into
// the gather, and no swap pass runs on that path. Every element meets the
// same IEEE operations in the same order as in swap-then-stage-by-stage
// radix-2, signed zeros included, so the bits are the plain algorithm's;
// plan_test.go holds the kernel, Bluestein's work arrays and the spectrum
// to the stage loop they replaced with math.Float64bits. The spectrum
// constructors take the full complex path (realForwardExactInto), whose
// coefficient bits bench/golden hashes; the packed real-input path
// (RealForward on even lengths) evaluates the same DFT through a
// half-length transform and differs from it only at rounding level (well
// under 1e-12 relative; see plan_test.go).

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
	// FFT of the chirp-conjugate pulse (bq), stored in bit-reversed order
	// because that is the order the inverse transform reads its input in.
	m     int
	mr2   *radix2Plan
	chirp []complex128
	bq    []complex128

	// Packed real-input state for even n: the half-length plan and the
	// untangling twiddles rw[k] = exp(-2*pi*i*k/n) for k = 0..n/2.
	half *Plan
	rw   []complex128
}

// radix2Plan caches the bit-reversal permutation and per-stage twiddle
// factors for one power-of-two length, in both transform directions.
type radix2Plan struct {
	n   int
	rev []int32        // bit-reversal permutation: position k holds input rev[k]
	fwd [][]complex128 // twiddles per stage, forward (sign -1)
	inv [][]complex128 // twiddles per stage, inverse (sign +1)
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
		p.mr2.permute(b)
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
		p.bluesteinInto(dst, x, s.complexA(p.m), s.complexZ(p.m), p.n)
	}
}

// bluesteinInto evaluates the chirp-z transform of x — an arbitrary-length
// DFT expressed as a convolution and evaluated with the power-of-two plan
// mr2 — writing the first outLen bins into dst. a and b are length-m work
// arrays: the forward transform runs in a, the inverse in b. x is read
// completely before b is written and dst[i] only after b[i] is final, so x
// and dst may share storage with b (and dst == x is allowed).
//
// Both transforms take their input already in bit-reversed order, so
// neither runs a swap pass. The forward input x·chirp padded to m with
// zeros is gathered straight into that order, and its first stage
// (butterflies' stage 0) is folded into the gather: m >= 2n-1 puts every
// input index >= m/2 in the padding, and bit reversal puts those indices
// in the odd slots, so the first stage pairs each product v with a +0
// partner and twiddle 1+0i. Its butterfly then writes v - (+0) to the odd
// slot and v + (+0) to the even one — which turns a -0 component of v
// into +0, so the + 0 is kept. The
// pointwise product with bq, stored bit-reversed, is gathered the same way
// into b. Every element sees the operations of the plain algorithm in the
// same order, so the bits are those of swap-then-transform.
//
//lint:hotpath: the detector's exact transform runs it once per classified block; pure arithmetic over caller-sized buffers
func (p *Plan) bluesteinInto(dst, x, a, b []complex128, outLen int) {
	n, m := p.n, p.m
	rev := p.mr2.rev[:m]
	a, b = a[:m], b[:m]
	chirp := p.chirp[:n]
	for k := 0; k < m; k += 2 {
		if r := int(rev[k]); r < n {
			v := x[r] * chirp[r]
			a[k] = v + 0
			a[k+1] = v - 0
		} else {
			a[k], a[k+1] = 0, 0
		}
	}
	p.mr2.butterflies(a, false, 1)
	bq := p.bq[:m]
	for k, r := range rev {
		b[k] = a[r] * bq[k]
	}
	p.mr2.butterflies(b, true, 0)
	invM := complex(1/float64(m), 0)
	for i := 0; i < outLen; i++ {
		dst[i] = b[i] * invM * chirp[i]
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
	dst = grow(dst, keep)
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
		p.bluesteinInto(dst, z, s.complexA(p.m), s.complexZ(p.m), p.n/2+1)
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
		for k, r := range p.r2.rev {
			z[k] = complex(x[r], 0)
		}
		p.r2.butterflies(z, false, 0)
		copy(dst, z[:len(dst)])
	default:
		z := s.complexZ(p.n)
		for i, v := range x {
			z[i] = complex(v, 0)
		}
		p.bluesteinInto(dst, z, s.complexA(p.m), s.complexZ(p.m), len(dst))
	}
}

// newRadix2Plan precomputes the bit-reversal permutation and the
// per-stage twiddle tables for a power-of-two length n. The twiddles come
// from the iterative w *= wBase recurrence, not a Sincos per entry: study
// goldens are pinned to that rounding.
func newRadix2Plan(n int) *radix2Plan {
	p := &radix2Plan{n: n}
	if n <= 1 {
		return p
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	p.rev = make([]int32, n)
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
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
	if p.n <= 1 {
		return
	}
	p.permute(a)
	p.butterflies(a, inverse, 0)
}

// permute puts a into bit-reversed order in place (the permutation is its
// own inverse, so applying it twice restores a).
func (p *radix2Plan) permute(a []complex128) {
	for i, j := range p.rev {
		if i < int(j) {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// butterflies runs the decimation-in-time stages from..log2(n)-1 over a,
// which holds its input in bit-reversed order; stage s combines pairs
// 2^s apart with twiddles tws[s]. Stages run two at a time (radix 2^2):
// each group of four elements 2^s apart is loaded once, both stages'
// butterflies run in registers, and the four results are stored once. An
// element meets the same multiplies, adds and subtracts, in the same
// order, as in stage-by-stage radix-2 — the fusion only drops the loads
// and stores between the two stages — so the output bits are identical.
// An odd stage count finishes with one radix-2 stage. (Radix 2^3 spills
// registers on amd64 and runs slower.)
//
//lint:hotpath: every planned transform's butterflies; pure arithmetic over the caller's buffer
func (p *radix2Plan) butterflies(a []complex128, inverse bool, from int) {
	tws := p.fwd
	if inverse {
		tws = p.inv
	}
	n := p.n
	a = a[:n]
	s := from
	for ; s+1 < len(tws); s += 2 {
		h := 1 << s
		w1 := tws[s][:h]
		w2 := tws[s+1][:2*h]
		w2lo, w2hi := w2[:h], w2[h:]
		for base := 0; base < n; base += 4 * h {
			q0 := a[base : base+h]
			q1 := a[base+h : base+2*h][:len(q0)]
			q2 := a[base+2*h : base+3*h][:len(q0)]
			q3 := a[base+3*h : base+4*h][:len(q0)]
			w1, w2lo, w2hi := w1[:len(q0)], w2lo[:len(q0)], w2hi[:len(q0)]
			for k := range q0 {
				x0, x1, x2, x3 := q0[k], q1[k], q2[k], q3[k]
				// Stage s: (x0, x1) and (x2, x3), twiddle w1[k].
				t := x1 * w1[k]
				x1 = x0 - t
				x0 += t
				t = x3 * w1[k]
				x3 = x2 - t
				x2 += t
				// Stage s+1: (x0, x2) with w2[k], (x1, x3) with w2[k+h].
				t = x2 * w2lo[k]
				q2[k] = x0 - t
				q0[k] = x0 + t
				t = x3 * w2hi[k]
				q3[k] = x1 - t
				q1[k] = x1 + t
			}
		}
	}
	if s < len(tws) {
		h := 1 << s
		w := tws[s][:h]
		for base := 0; base < n; base += 2 * h {
			lo := a[base : base+h]
			hi := a[base+h : base+2*h][:len(lo)]
			w := w[:len(lo)]
			for k := range lo {
				t := hi[k] * w[k]
				hi[k] = lo[k] - t
				lo[k] += t
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
	a    []complex128 // Bluestein convolution work array (length m)
	z    []complex128 // real-input staging / packed half-length series
	f    []float64    // detrended-values staging for callers
	spec Spectrum     // ScratchSpectrum's bins
}

// NewScratch returns an empty workspace; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) complexA(n int) []complex128 {
	s.a = grow(s.a, n)
	return s.a
}

func (s *Scratch) complexZ(n int) []complex128 {
	s.z = grow(s.z, n)
	return s.z
}

// Floats returns a length-n float64 buffer owned by the scratch, for
// callers staging derived series (e.g. detrended values) without
// allocating per call. Contents are unspecified on return.
func (s *Scratch) Floats(n int) []float64 {
	s.f = grow(s.f, n)
	return s.f
}

// grow returns b resized to length n, reallocating only when capacity is
// short. Contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// scratchPool backs the entry points called with a nil Scratch: concurrent
// callers each borrow a warm workspace instead of allocating transform
// temporaries per call.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }
