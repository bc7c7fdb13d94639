package netsim

// Batched delivery: DeliverBatch is the one way a packet enters the
// simulated edge. It crosses the netsim boundary once for a whole wavefront
// of probes, amortizing the route lookup, lock acquisition, tap walk, time
// conversion and outage-schedule evaluation over the batch: routing takes Network.mu once and resolves only the
// destinations the buffer's route cache does not already hold at the
// current topology generation, and the delivery time is converted to one
// instant for every probe (a probe the tap skews converts its own).
//
// Determinism contract: a batch produces byte-identical Responses, in
// order, to delivering pkts[0], pkts[1], ... one at a time at the same now
// — whether as one-packet batches or through the tests' sequential oracle
// (DeliverIPRef in export_test.go). Batching only reorders *work* — routing
// is resolved once per destination block, the tap is consulted once per
// batch, outage schedules are memoized per (block, instant) — never
// observable *results*: every PRF draw is keyed by (seed, destination,
// probe identity, timestamp), not by position in a batch, and the only
// order-dependent state in the simulator (per-block tap state) sees its
// block's packets in the same relative order either way. The per-packet delivery logic is probeCore/deliverCore
// for every packet — there is no second implementation to drift.

import (
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
)

// routeEntry is one resolved destination block in a BatchBuffer's route
// cache. The block is looked up once per topology generation and reused
// across batches, and downNS/down memoize the block's outage schedule at
// the instant its probes last shared, so the schedule walk happens once per
// (block, round) instead of once per probe. The memo is keyed on the exact
// instant, which makes it self-invalidating across rounds and immune to
// per-destination clock skew from a tap. 24 bytes.
type routeEntry struct {
	blk      *Block // nil for unrouted space
	downNS   int64  // the instant down holds for, once ok
	down, ok bool
}

// resolve looks up the route to block id. Callers hold n.mu (read side).
func (n *Network) resolve(id BlockID) routeEntry {
	return routeEntry{blk: n.blocks[id]}
}

// downAt reports whether the route's block is in an outage at Unix
// nanosecond ns, walking its outage schedule only when ns is not the
// instant the memo holds.
func (e *routeEntry) downAt(ns int64) bool {
	if !e.ok || e.downNS != ns {
		e.downNS, e.down, e.ok = ns, e.blk.downAt(ns), true
	}
	return e.down
}

// pktMeta is the per-packet parse/resolve state DeliverBatch carries
// between passes. It stores only plain values (header by value, echo
// identifiers) — never views into the caller's packet bytes — so holding
// metas across passes cannot violate the parser aliasing contracts.
type pktMeta struct {
	hdr     ipv4.Header
	dst     Addr
	route   int32 // index into BatchBuffer.entries, -1 when the IP header is malformed
	tap     int32 // index into the batch tap decision, -1 when the packet never reaches the tap
	echoID  uint16
	echoSeq uint16
	ipOK    bool // IPv4 header parsed and carries ICMP
	echoOK  bool // payload parsed as a valid echo request
}

// span locates one packet's reply inside the batch arena; start == end
// marks a timeout (no reply bytes).
type span struct {
	start, end int
}

// BatchBuffer is the reusable state one probing worker threads through
// DeliverBatch: the route cache, per-packet metadata, the reply arena, and
// the returned Response slice. The zero value is ready to use; everything
// grows to the largest batch seen and is reused afterwards.
//
// A BatchBuffer belongs to exactly one probing goroutine and
// to the first Network it is used with. Every Response.Data returned by
// DeliverBatch is a view into the buffer's reply arena, valid only until
// the next DeliverBatch call on the same buffer — callers that retain
// reply bytes must copy them first.
type BatchBuffer struct {
	owner *Network
	gen   uint64

	routes  map[BlockID]int32 // BlockID -> index into entries
	entries []routeEntry

	metas []pktMeta
	resps []Response
	spans []span

	// icmp is the per-packet ICMP-layer scratch (reset per packet); arena
	// accumulates every IP-encapsulated reply of the batch so all Responses
	// stay valid together. They are distinct so wrapping a reply never
	// copies a slice over itself.
	icmp  []byte
	arena []byte

	// Scratch for the one-call-per-batch tap consultation.
	tapDsts     []Addr
	tapTimes    []time.Time
	tapVerdicts []TapVerdict
}

// RetainedBytes reports the heap bytes the buffer retains across calls —
// the per-worker steady-state cost of delivery, pinned by the monitor's
// memory-bound test.
func (b *BatchBuffer) RetainedBytes() int {
	if b == nil {
		return 0
	}
	per := int(0)
	per += cap(b.entries) * (8 + 8 + 8) // routeEntry: blk, downNS, down+ok padded
	// The map holds one key per entry and clear keeps its buckets, so it
	// retains what it held at its fullest, which cap(entries) bounds — not
	// what it holds at the moment, which depends on where the last reset fell.
	per += cap(b.entries) * (4 + 4)
	per += cap(b.metas) * 48
	per += cap(b.resps) * 32
	per += cap(b.spans) * 16
	per += cap(b.icmp) + cap(b.arena)
	per += cap(b.tapDsts)*8 + cap(b.tapTimes)*24 + cap(b.tapVerdicts)*8
	return per
}

// routeCacheCap bounds the route cache across batches. Within one batch the
// cache holds at most the batch's distinct destination blocks; across
// batches it would otherwise accumulate every block the prober ever touches
// — O(world), exactly the growth the per-worker memory bound forbids. Once
// it outgrows the cap it is reset at the next batch boundary: correctness
// is untouched (the cache only memoizes lookups) and the steady-state cost
// returns to O(cap). The cap holds a whole monitor shard of up to 512
// blocks — every batch group of every round — so such a shard resolves
// each route once. A larger shard's groups evict each other: it still
// resolves about once per block-round.
const routeCacheCap = 512

// init lazily creates the route cache map so the zero value works.
func (b *BatchBuffer) init() {
	if b.routes == nil {
		//lint:allow hotalloc: one-time lazy init of the route-cache map; warm batches never reach this
		b.routes = make(map[BlockID]int32)
	}
}

// DeliverBatch routes a batch of full IPv4 packets into the simulated edge
// at virtual time now, returning one Response per packet in input order:
// each header is parsed and validated, the destination is taken from it,
// the ICMP payload is answered by the destination block, and replies come back
// IPv4-encapsulated with source and destination swapped. The result is
// exactly that of delivering pkts[i] one at a time in order (see the
// comment at the top of this file for the determinism argument), but
// routing is resolved once per destination block, the fault tap is
// consulted once per batch, now is converted once per batch, and each
// block's outage schedule is evaluated once per (block, instant).
//
// The returned slice and every Response.Data in it are views into buf,
// valid only until the next DeliverBatch on the same buffer.
//
//lint:hotpath: batched warm-round delivery path, 0 allocs/op pinned by TestDeliverBatchAllocFree
//lint:aliases return: every Response.Data (and the slice itself) is a view into buf's reply arena, valid only until the next DeliverBatch on the same buffer
func (n *Network) DeliverBatch(buf *BatchBuffer, pkts [][]byte, now time.Time) []Response {
	buf.init()

	// Pass 1: parse every packet — IP header by value, echo identity by
	// value — outside any lock. Views into pkts[i] do not outlive the pass.
	buf.metas = buf.metas[:0]
	for _, pkt := range pkts {
		var m pktMeta
		m.route, m.tap = -1, -1
		payload, err := ipv4.ParseHeader(&m.hdr, pkt)
		if err == nil && m.hdr.Protocol == ipv4.ProtoICMP {
			m.ipOK = true
			m.dst = AddrFromIP(m.hdr.Dst)
			var echo icmp.Echo
			if icmp.ParseEchoInto(&echo, payload) == nil && !echo.Reply {
				m.echoOK = true
				m.echoID, m.echoSeq = echo.ID, echo.Seq
			}
		}
		buf.metas = append(buf.metas, m)
	}
	metas := buf.metas

	// Pass 2: resolve routing once per destination block under a single
	// read lock, reusing the cache while the topology generation holds.
	n.mu.RLock()
	if gen := n.gen.Load(); buf.owner != n || buf.gen != gen {
		clear(buf.routes)
		buf.entries = buf.entries[:0]
		buf.owner = n
		buf.gen = gen
	} else if len(buf.entries) > routeCacheCap {
		clear(buf.routes)
		buf.entries = buf.entries[:0]
	}
	tap := n.tap
	newFrom := len(buf.entries)
	for i := range metas {
		m := &metas[i]
		if !m.ipOK {
			continue
		}
		ri, ok := buf.routes[m.dst.Block]
		if !ok {
			buf.entries = append(buf.entries, n.resolve(m.dst.Block))
			ri = int32(len(buf.entries) - 1)
			buf.routes[m.dst.Block] = ri
		}
		m.route = ri
	}
	n.mu.RUnlock()
	if added := len(buf.entries) - newFrom; added > 0 {
		n.resolved.Add(int64(added))
	}
	var in instant
	in.set(now)

	// Pass 3: one outbound tap consultation for the whole batch. Only
	// packets whose delivery reaches the tap participate: an IP-malformed
	// or echo-malformed packet dies before it, so the tap must not see it
	// (it may keep per-block state, e.g. the fault injector's rate-limit
	// window).
	if tap != nil {
		buf.tapDsts = buf.tapDsts[:0]
		for i := range metas {
			m := &metas[i]
			if !m.ipOK || !m.echoOK {
				continue
			}
			m.tap = int32(len(buf.tapDsts))
			buf.tapDsts = append(buf.tapDsts, m.dst)
		}
		if need := len(buf.tapDsts); need > 0 {
			for len(buf.tapTimes) < need {
				buf.tapTimes = append(buf.tapTimes, time.Time{})
			}
			for len(buf.tapVerdicts) < need {
				buf.tapVerdicts = append(buf.tapVerdicts, TapDeliver)
			}
			tap.OutboundBatch(buf.tapDsts, now, buf.tapTimes[:need], buf.tapVerdicts[:need])
		}
	}

	// Pass 4: deliver in input order through deliverCore, appending replies
	// to the arena. Response.Data is recorded as a span because arena growth
	// may move the backing mid-batch.
	buf.arena = buf.arena[:0]
	buf.resps = buf.resps[:0]
	buf.spans = buf.spans[:0]
	for i := range metas {
		m := &metas[i]
		start := len(buf.arena)
		if !m.ipOK {
			buf.resps = append(buf.resps, Response{Timeout: true})
			buf.spans = append(buf.spans, span{start, start})
			continue
		}
		e := &buf.entries[m.route]
		pkt := pkts[i]
		payload := pkt[ipv4.HeaderLen:m.hdr.TotalLen]
		var echo icmp.Echo
		if m.echoOK {
			// Rebuild the pass-1 parse from recorded identity plus offsets;
			// the payload view is scoped to this iteration.
			echo.ID, echo.Seq = m.echoID, m.echoSeq
			if len(payload) > icmp.EchoHeaderLen {
				echo.Payload = payload[icmp.EchoHeaderLen:]
			}
		}
		var pre tapPre
		if m.tap >= 0 {
			pre = tapPre{t: buf.tapTimes[m.tap], v: buf.tapVerdicts[m.tap]}
		}
		// deliverCore writes the outcome straight into the appended slot;
		// its Data view is cleared below and re-materialized from the span
		// in pass 5 once the arena has settled.
		buf.resps = append(buf.resps, Response{})
		resp := &buf.resps[len(buf.resps)-1]
		icmpOut, ipOut := n.deliverCore(e, tap, buf.icmp[:0], buf.arena, &m.hdr, m.dst, payload, &echo, m.echoOK, &in, pre, resp)
		buf.icmp = icmpOut
		buf.arena = ipOut
		end := start
		if !resp.Timeout && resp.Data != nil {
			end = len(buf.arena)
		}
		resp.Data = nil
		buf.spans = append(buf.spans, span{start, end})
	}

	// Pass 5: materialize Response.Data views from the settled arena.
	for i := range buf.spans {
		if sp := buf.spans[i]; sp.end > sp.start {
			buf.resps[i].Data = buf.arena[sp.start:sp.end]
		}
	}
	return buf.resps
}
