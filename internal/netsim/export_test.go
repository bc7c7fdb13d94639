package netsim

import "time"

// SimEpoch lets the external tests aim instants at negative simulation days.
var SimEpoch = simEpoch

// TrueCountsRef is TrueCounts by definition — ask every behaviour of the
// spec in turn — and the oracle the host table is tested against.
func (b *Block) TrueCountsRef(hosts *Hosts, t time.Time) (up, ever int) {
	down := b.InOutage(t)
	for _, bh := range hosts {
		if bh == nil || !bh.EverActive() {
			continue
		}
		ever++
		if !down && bh.Up(t) {
			up++
		}
	}
	return up, ever
}

// HostSpec reads a spec back out of the block's host table, for blocks
// whose spec the test never saw (generated worlds): the same parameters as
// plain behaviours, whose Up is the definition the table must agree with.
func (b *Block) HostSpec() *Hosts {
	var hosts Hosts
	t := b.hosts
	for _, h := range t.ever {
		switch i := t.idx[h]; t.kind[h] {
		case hostAlways:
			hosts[h] = AlwaysOn{}
		case hostDiurnal:
			hosts[h] = t.diurnal[i]
		case hostIntermittent:
			hosts[h] = t.inter[i]
		case hostOther:
			hosts[h] = t.other[i]
		}
	}
	return &hosts
}
