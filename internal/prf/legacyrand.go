package prf

import "math/rand"

// LegacyRand returns a generator whose stream is exactly
// rand.New(rand.NewSource(seed))'s, for the simulator streams that recorded
// worlds and studies are pinned to (world generation, outage schedules,
// prober walks). Seeding it, by LegacyRand or by the Rand's Seed, costs O(1):
// the source builds each entry of its 607-word state the first time a draw
// reads it, so a stream reseeded per block and drawn a few times pays for a
// few entries, not for math/rand's 1,841 seeding steps. New streams that need
// no such history use Hash/Float keyed by the run seed.
func LegacyRand(seed int64) *rand.Rand {
	s := new(legacySource)
	s.Seed(seed)
	return rand.New(s)
}

// The additive lagged Fibonacci generator of math/rand (rng.go): a 607-word
// register, tap lag 273, seeded by the Lehmer LCG x' = 48271·x mod (2³¹−1).
const (
	legacyLen      = 607
	legacyTap      = 273
	legacyFeed     = legacyLen - legacyTap // feed's start, and the first index tap reaches only after feed wrote it
	legacyMod      = 1<<31 - 1
	legacyZeroSeed = 89482311 // what math/rand seeds with in place of 0
)

// legacyPow[i] holds 48271^j mod (2³¹−1) for j = 20+3i+1, +2, +3: math/rand's
// Seed steps its LCG 20 times, then three times an entry, so entry i mixes
// the LCG's x_j = seed·48271^j for those three j.
var legacyPow = func() (pow [legacyLen][3]uint64) {
	x := uint64(1)
	step := func() uint64 { x = x * 48271 % legacyMod; return x }
	for j := 0; j < 20; j++ {
		step()
	}
	for i := range pow {
		pow[i] = [3]uint64{step(), step(), step()}
	}
	return pow
}()

// legacySource is math/rand's rngSource with a lazy Seed. The register's
// first pass is read in a fixed order: feed walks down from legacyFeed−1 to
// 0 and writes each entry it reads, while tap walks down from legacyLen−1
// and reaches legacyFeed−1 only after feed has rewritten it. So each entry
// is built on the draw that first reads it: by feed below legacyFeed, by tap
// above. Until feed has built entry 0 (tap finished 61 draws before), feed
// is stored biased by legacyLazy, so the step's rare wrap branch, which
// rngSource has too, catches every draw of that first pass; after it, a
// draw does only what rngSource's does.
type legacySource struct {
	tap  int
	feed int    // below −1 during the first pass: the index is feed − legacyLazy
	seed uint64 // normalised as math/rand does: in [1, 2³¹−1)
	vec  [legacyLen]int64
}

// legacyLazy biases feed during the first pass far enough below −1 that a
// decrement can never carry it to a plain index.
const legacyLazy = -2 * legacyLen

// Seed resets the source to rand.NewSource(seed)'s state without building
// any of it.
func (s *legacySource) Seed(seed int64) {
	seed %= legacyMod
	if seed < 0 {
		seed += legacyMod
	}
	if seed == 0 {
		seed = legacyZeroSeed
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = legacyFeed + legacyLazy
}

// entry is register entry i as math/rand's Seed leaves it.
func (s *legacySource) entry(i int) int64 {
	p := &legacyPow[i]
	x1 := s.seed * p[0] % legacyMod
	x2 := s.seed * p[1] % legacyMod
	x3 := s.seed * p[2] % legacyMod
	return int64(x1<<40^x2<<20^x3) ^ legacyCooked[i]
}

// Int63 is rngSource.Int63. math/rand takes every draw but Uint64 from it,
// through the Source interface, so it repeats Uint64's step rather than
// calling it: the step does not inline.
func (s *legacySource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += legacyLen
	}
	s.feed--
	feed := s.feed
	if feed < 0 {
		feed = s.wrapFeed()
	}
	x := s.vec[feed] + s.vec[s.tap]
	s.vec[feed] = x
	return x & (1<<63 - 1)
}

// Uint64 is rngSource.Uint64.
func (s *legacySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += legacyLen
	}
	s.feed--
	feed := s.feed
	if feed < 0 {
		feed = s.wrapFeed()
	}
	x := s.vec[feed] + s.vec[s.tap]
	s.vec[feed] = x
	return uint64(x)
}

// wrapFeed returns the index of the entry feed reads this draw, once feed
// has been decremented below 0: the wrap to legacyLen−1, as rngSource does,
// or, during the first pass, the unbiased index, after building the entries
// this draw reads for the first time.
func (s *legacySource) wrapFeed() int {
	if s.feed == -1 {
		s.feed = legacyLen - 1
		return s.feed
	}
	if s.tap >= legacyFeed {
		s.vec[s.tap] = s.entry(s.tap)
	}
	feed := s.feed - legacyLazy
	s.vec[feed] = s.entry(feed)
	if feed == 0 {
		s.feed = 0 // the first pass is over
	}
	return feed
}
