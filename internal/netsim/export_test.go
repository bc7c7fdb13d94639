package netsim

import (
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
)

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

// DeliverIPRef delivers one packet by definition — parse, route, run
// deliverCore with no batch state (the tap asked for a batch of this one
// packet, a fresh instant memo, fresh reply bytes), flush the counters — and
// is the sequential oracle DeliverBatch is tested against. It is the body of
// the per-packet entry point the program had before DeliverBatch became the
// only one.
func (n *Network) DeliverIPRef(pkt []byte, now time.Time) Response {
	var hdr ipv4.Header
	payload, err := ipv4.ParseHeader(&hdr, pkt)
	if err != nil || hdr.Protocol != ipv4.ProtoICMP {
		n.Stats.Probes.Add(1)
		n.Stats.Malformed.Add(1)
		return Response{Timeout: true}
	}
	dst := AddrFromIP(hdr.Dst)

	var echo icmp.Echo
	echoOK := icmp.ParseEchoInto(&echo, payload) == nil && !echo.Reply

	var acc statsAcc
	n.mu.RLock()
	blk := n.blocks[dst.Block]
	tap := n.tap
	cnt := n.perBlockProbes[dst.Block]
	n.mu.RUnlock()
	if cnt == nil {
		cnt = n.registerBlockCounter(dst.Block)
	}

	// The tap sees exactly the packets whose delivery reaches it.
	var pre tapPre
	if tap != nil && echoOK && (blk == nil || int(hdr.TTL) > blk.hops) {
		var (
			times    [1]time.Time
			verdicts [1]TapVerdict
		)
		tap.OutboundBatch([]Addr{dst}, now, times[:], verdicts[:])
		pre = tapPre{t: times[0], v: verdicts[0]}
	}

	var resp Response
	var memo blockInstant
	n.deliverCore(blk, tap, nil, nil, &hdr, dst, payload, &echo, echoOK, now, pre, &memo, &acc, &resp)
	cnt.Add(1)
	acc.flush(&n.Stats)
	return resp
}
