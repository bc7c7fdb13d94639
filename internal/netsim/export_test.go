package netsim

import "time"

// SimEpoch lets the external tests aim instants at negative simulation days.
var SimEpoch = simEpoch

// TrueCountsRef exposes the reference enumeration, the oracle the truth
// plan is compared against.
func (b *Block) TrueCountsRef(t time.Time) (up, ever int) { return b.trueCountsRef(t) }
