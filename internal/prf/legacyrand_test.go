package prf

import (
	"math"
	"math/rand"
	"testing"
)

// legacySeeds are the seeds LegacyRand is held to math/rand at: the edges of
// math/rand's seed normalisation (0, the zero substitute, ±(2³¹−1) and their
// multiples, the int64 extremes) and 200 seeds keyed the way world outage
// schedules and prober walks key theirs.
func legacySeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, -1, 1, legacyZeroSeed, m, -m, 2*m + 5, math.MinInt64, math.MaxInt64}
	for id := uint64(0); id < 100; id++ {
		block := id * 0x010203 << 8
		seeds = append(seeds,
			int64(block*0x9e3779b9^42^0x07a6e), // world outage schedule
			int64(42^block))                    // prober walk
	}
	return seeds
}

// TestLegacyRandMatchesMathRand holds LegacyRand to rand.NewSource bit for
// bit: raw draws well past the register's 607-entry wrap, shuffles of the
// sizes the probers use, and the derived draws after a reseed of a reused
// Rand.
func TestLegacyRandMatchesMathRand(t *testing.T) {
	const draws = 2500
	reused := LegacyRand(7)
	for _, seed := range legacySeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := LegacyRand(seed)
		for i := 0; i < draws; i++ {
			w, g := want.Uint64(), got.Uint64()
			if w != g {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
			}
		}

		for _, n := range []int{0, 1, 2, 15, 255, 256} {
			wantWalk, gotWalk := identity(n), identity(n)
			rand.New(rand.NewSource(seed)).Shuffle(n, swapper(wantWalk))
			reused.Seed(seed)
			reused.Shuffle(n, swapper(gotWalk))
			for i := range wantWalk {
				if wantWalk[i] != gotWalk[i] {
					t.Fatalf("seed %d: Shuffle(%d) = %v, want %v", seed, n, gotWalk, wantWalk)
				}
			}
		}

		ref := rand.New(rand.NewSource(seed))
		reused.Seed(seed)
		for i := 0; i < 200; i++ {
			if w, g := ref.Intn(1000), reused.Intn(1000); w != g {
				t.Fatalf("seed %d: Intn #%d = %d, want %d", seed, i, g, w)
			}
			if w, g := ref.Int63n(1<<40+3), reused.Int63n(1<<40+3); w != g {
				t.Fatalf("seed %d: Int63n #%d = %d, want %d", seed, i, g, w)
			}
			if w, g := ref.ExpFloat64(), reused.ExpFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v, want %v", seed, i, g, w)
			}
			if w, g := ref.NormFloat64(), reused.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, g, w)
			}
		}
	}
}

// FuzzLegacyRand checks n draws of LegacyRand(seed) against rand.NewSource,
// then reseeds the same Rand mid-stream and checks again.
func FuzzLegacyRand(f *testing.F) {
	for _, seed := range []int64{0, -1, legacyZeroSeed, 1<<31 - 1, math.MinInt64} {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got := LegacyRand(seed)
		for pass, s := range []int64{seed, seed ^ 0x5eed} {
			if pass > 0 {
				got.Seed(s)
			}
			want := rand.NewSource(s)
			for i := 0; i < int(n); i++ {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d pass %d: draw %d = %d, want %d", s, pass, i, g, w)
				}
			}
		}
	})
}

// TestLegacyRandSeedAllocs: reseeding a reused Rand and shuffling a walk —
// what a prober does a block — allocates nothing.
func TestLegacyRandSeedAllocs(t *testing.T) {
	r := LegacyRand(1)
	walk := identity(256)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		r.Shuffle(len(walk), func(i, j int) { walk[i], walk[j] = walk[j], walk[i] })
	})
	if allocs != 0 {
		t.Fatalf("Seed + Shuffle(256) = %v allocs, want 0", allocs)
	}
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func swapper(s []int) func(i, j int) {
	return func(i, j int) { s[i], s[j] = s[j], s[i] }
}

// BenchmarkLegacySeedShuffle64 is a prober's AddBlock walk: seed a stream
// and shuffle 64 octets, with LegacyRand reseeded and with a fresh
// rand.NewSource.
func BenchmarkLegacySeedShuffle64(b *testing.B) {
	walk := identity(64)
	swap := swapper(walk)
	b.Run("LegacyRand", func(b *testing.B) {
		r := LegacyRand(0)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.Shuffle(len(walk), swap)
		}
	})
	b.Run("NewSource", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.New(rand.NewSource(int64(i))).Shuffle(len(walk), swap)
		}
	})
}
