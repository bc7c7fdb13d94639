// Package norand is a deliberately-broken fixture: every line marked
// `want norand` must trigger exactly the norand rule and nothing else.
package norand

import (
	"math/rand"

	"sleepnet/internal/prf"
)

// GlobalDraws uses the process-seeded global stream — each is a violation.
func GlobalDraws() int {
	rand.Seed(42)                      // want norand
	n := rand.Intn(10)                 // want norand
	f := rand.Float64()                // want norand
	rand.Shuffle(3, func(i, j int) {}) // want norand
	return n + int(f)
}

// SeededDraws uses explicitly seeded generators. rand.NewSource is the
// eager constructor, a violation; prf.LegacyRand gives its stream and is
// legal, as are the *rand.Rand methods on either.
func SeededDraws(seed uint64) int {
	r := rand.New(rand.NewSource(int64(seed))) // want norand
	n := r.Intn(10)
	_ = r.Float64()
	l := prf.LegacyRand(int64(seed))
	_ = l.NormFloat64()
	l.Seed(int64(seed) + 1)
	return n + l.Intn(10)
}

// privateMix copies the SplitMix64 finalizer instead of calling prf: each
// multiplier is a violation.
func privateMix(v uint64) uint64 {
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9 // want norand
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb // want norand
	return v ^ (v >> 31) + prf.Mix(v)
}
