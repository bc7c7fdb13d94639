// Package netsim simulates the IPv4 edge the paper measures: /24 blocks of
// addresses with per-address behaviour models (always-on, diurnal with
// phase and noise, intermittent, dead), per-block loss and latency, and
// whole-block outages. Probes enter and leave as marshalled ICMP packets,
// so the measurement pipeline above exercises a real encode/decode path.
//
// All randomness is a pure function of (seed, identifiers, time quantum),
// so a simulation is exactly reproducible and answers are consistent when
// an address is probed twice in the same round — the property that makes
// ground-truth availability well defined. The draws themselves come from
// the canonical PRF in internal/prf; these wrappers only keep the local
// names the simulator code reads naturally.
package netsim

import "sleepnet/internal/prf"

// prfFloat2 and prfFloat3 return a uniform float64 in [0, 1): the
// fixed-arity forms of prf.Float, bit-identical to it with the same parts.
func prfFloat2(seed, a, b uint64) float64 { return prf.Float2(seed, a, b) }

func prfFloat3(seed, a, b, c uint64) float64 { return prf.Float3(seed, a, b, c) }

// prfNorm returns a standard normal deviate.
func prfNorm(seed uint64, parts ...uint64) float64 {
	return prf.Norm(seed, parts...)
}
