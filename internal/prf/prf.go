// Package prf is the repository's one canonical seeded pseudorandom
// function: a SplitMix64-based keyed hash over packed integer inputs. All
// simulator randomness (address behaviours, path loss, collection
// artifacts, fault injection) must come from here so that a run is exactly
// reproducible from its seed and so that independent subsystems cannot
// drift apart by re-implementing the mixer with subtly different chaining.
package prf

import "math"

// Mix is the finalizing mixer from the SplitMix64 generator (including the
// golden-ratio increment); it is the primitive every derived draw builds on.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash hashes the seed and parts into a uniform 64-bit value.
func Hash(seed uint64, parts ...uint64) uint64 {
	h := Mix(seed)
	for _, p := range parts {
		h = Mix(h ^ p)
	}
	return h
}

// Float returns a uniform float64 in [0, 1).
func Float(seed uint64, parts ...uint64) float64 {
	return float64(Hash(seed, parts...)>>11) / (1 << 53)
}

// Float2 is Float(seed, a, b) with the Mix chain unrolled: bit-identical
// output without the variadic slice setup and loop, for per-probe draws on
// the delivery hot path. TestFixedArityMatchesVariadic pins the equality.
func Float2(seed, a, b uint64) float64 {
	return float64(Mix(Mix(Mix(seed)^a)^b)>>11) / (1 << 53)
}

// Float3 is Float(seed, a, b, c) unrolled; see Float2.
func Float3(seed, a, b, c uint64) float64 {
	return float64(Mix(Mix(Mix(Mix(seed)^a)^b)^c)>>11) / (1 << 53)
}

// mixRaw is the SplitMix64 finalizer without the golden-ratio increment.
// It exists only to support the legacy chain below; new code uses Mix.
func mixRaw(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LegacyFloat returns a uniform float64 in [0, 1) using the historical
// chaining of internal/core's collection-artifact draws, rdns's name
// synthesis and geo's coverage draw: the increment is applied to the seed
// only, not per part. The stream is frozen because recorded datasets and
// reports must stay reproducible from their seeds (repositioning the ~5%
// artifact rounds flips borderline classifications). New code must use
// Float.
func LegacyFloat(seed uint64, parts ...uint64) float64 {
	h := mixRaw(seed + 0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = mixRaw(h ^ p)
	}
	return float64(h>>11) / (1 << 53)
}

// Norm returns a standard normal deviate via the Box-Muller transform on
// two independent draws.
func Norm(seed uint64, parts ...uint64) float64 {
	u1 := Float(seed^0x5bf0_3635, parts...)
	u2 := Float(seed^0xc2b2_ae35, parts...)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
