package netsim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
)

// Response is the outcome of one probe round trip.
type Response struct {
	// Data is the raw reply packet; nil when the probe timed out.
	//
	// Lifetime: Data is a view into the BatchBuffer the probe was delivered
	// through, valid only until the next DeliverBatch on that buffer.
	Data []byte
	// RTT is the simulated round-trip time for delivered replies.
	RTT time.Duration
	// Timeout is true when no reply arrived (address down, block in outage,
	// or packet loss) — indistinguishable causes, as on the real Internet.
	Timeout bool
	// SendFailed is true when the probe never left the vantage point (local
	// send error, e.g. during a vantage blackout). Unlike a timeout this is
	// knowably transient and carries no evidence about the target, so a
	// prober may retry it.
	SendFailed bool
}

// TapVerdict is the fate a Tap assigns to an outbound probe.
type TapVerdict int

const (
	// TapDeliver lets the probe through unharmed.
	TapDeliver TapVerdict = iota
	// TapDrop loses the probe silently in transit (indistinguishable from a
	// down target).
	TapDrop
	// TapSendError fails the probe at the vantage point before it is sent.
	TapSendError
	// TapAdminProhibited has an intermediate device eat the probe and answer
	// with an ICMP administratively-prohibited unreachable (rate limiting).
	TapAdminProhibited
)

// Tap perturbs the delivery path — the hook the fault-injection layer
// (internal/faults) attaches to. A nil tap, like a zero-value injector, is
// a no-op. Implementations must be safe for concurrent use; SetTap must not
// race with probing (same rule as AddBlock).
//
// The contract is batched: DeliverBatch asks for the outbound fate of every
// probe of a batch in one call, so all outbound fates are decided before
// any inbound processing. A tap's Inbound behavior must therefore not
// depend on interleaving with its own outbound decisions.
// internal/faults.Injector qualifies: all of its decisions are PRF-pure per
// (destination, timestamp) except the per-block rate-limit counter, which
// sees each block's probes in slice order.
type Tap interface {
	// OutboundBatch is consulted once per batch, before any of its probes is
	// routed. For each dsts[i] it fills times[i] with the (possibly skewed)
	// timestamp delivery should use and verdicts[i] with the probe's fate.
	OutboundBatch(dsts []Addr, now time.Time, times []time.Time, verdicts []TapVerdict)
	// Inbound may corrupt or replace a reply on its way back. Returning nil
	// drops the reply (the probe times out).
	//
	// The reply slice is a prober's reusable BatchBuffer storage that is
	// overwritten by its next batch: implementations must not retain it past
	// the call, and must copy-on-corrupt (return a fresh slice) rather than
	// mutate it in place, so a tap never scribbles on buffers it does not
	// own. internal/faults follows this contract.
	Inbound(dst Addr, reply []byte, now time.Time) []byte
}

// Counters accumulates network-wide accounting, used to check the paper's
// "<20 probes per hour per /24" claim.
type Counters struct {
	Probes      atomic.Int64
	Replies     atomic.Int64
	Timeouts    atomic.Int64
	Lost        atomic.Int64
	Malformed   atomic.Int64
	RateLimited atomic.Int64
}

// Network is the simulated Internet edge: a set of /24 blocks addressable
// by ICMP echo probes. DeliverBatch is safe for concurrent use (one
// BatchBuffer per goroutine); topology mutation (AddBlock) must not race
// with probing.
type Network struct {
	mu     sync.RWMutex
	blocks map[BlockID]*Block
	seed   uint64
	tap    Tap
	// gen is the topology generation, bumped by AddBlock and SetTap; batch
	// route caches (BatchBuffer) validate against it so a cached *Block or
	// tap never outlives the mutation that replaced it.
	gen atomic.Uint64

	// Stats counts global probe outcomes.
	Stats Counters
	// perBlockProbes counts probes per block for radiation-budget checks.
	// A plain map under mu (counters pre-registered by AddBlock) rather
	// than a sync.Map: the uint32 key would be boxed on every sync.Map
	// lookup, putting one allocation on every probe. Counter pointers are
	// stable for the lifetime of the network (registration never replaces
	// an existing counter), which is what lets batch route caches hold
	// them across generations.
	perBlockProbes map[BlockID]*atomic.Int64
}

// statsAcc accumulates Counters deltas locally so one delivery (or one
// whole batch) flushes them with at most one atomic add per counter
// instead of one per event. Flush order differs from the historical
// per-event adds, but the counters are monotonic totals read after
// quiescence, so only the totals are observable.
type statsAcc struct {
	probes, replies, timeouts, lost, malformed, rateLimited int64
}

// flush applies the accumulated deltas and resets the accumulator.
func (a *statsAcc) flush(c *Counters) {
	if a.probes != 0 {
		c.Probes.Add(a.probes)
	}
	if a.replies != 0 {
		c.Replies.Add(a.replies)
	}
	if a.timeouts != 0 {
		c.Timeouts.Add(a.timeouts)
	}
	if a.lost != 0 {
		c.Lost.Add(a.lost)
	}
	if a.malformed != 0 {
		c.Malformed.Add(a.malformed)
	}
	if a.rateLimited != 0 {
		c.RateLimited.Add(a.rateLimited)
	}
	*a = statsAcc{}
}

// tapPre carries a probe's outbound tap decision, made for its whole batch
// up front, into the delivery core. Unused without a tap.
type tapPre struct {
	t time.Time
	v TapVerdict
}

// blockInstant memoizes what delivery derives from (block, delivery time)
// alone — the converted instant and whether the block is in an outage.
// Every probe of a block within one batched round shares the same delivery
// timestamp, so the time conversions and the outage schedule walk happen
// once per (block, round) instead of once or twice per probe. Keying on the
// exact instant makes the memo self-invalidating across rounds and immune
// to per-destination clock skew from a tap.
type blockInstant struct {
	instant
	down bool // the block is in an outage
	ok   bool // filled in: the zero value holds no instant
}

func (c *blockInstant) at(blk *Block, now time.Time) *blockInstant {
	if !c.ok || c.now != now {
		c.instant.set(now)
		c.down = blk.downAt(c.ns)
		c.ok = true
	}
	return c
}

// NewNetwork creates an empty simulated network with the given seed.
func NewNetwork(seed uint64) *Network {
	return &Network{
		blocks:         make(map[BlockID]*Block),
		seed:           seed,
		perBlockProbes: make(map[BlockID]*atomic.Int64),
	}
}

// SetTap installs (or, with nil, removes) a delivery-path fault tap. Like
// AddBlock it must not race with probing.
func (n *Network) SetTap(t Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = t
	n.gen.Add(1)
}

// AddBlock registers a block. Re-adding a BlockID replaces it.
func (n *Network) AddBlock(b *Block) {
	b.hops = b.PathHops()
	b.outages = b.outages[:0]
	for _, iv := range b.Outages {
		b.outages = append(b.outages, nsSpan{iv.Start.UnixNano(), iv.End.UnixNano()})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocks[b.ID] = b
	if n.perBlockProbes[b.ID] == nil {
		n.perBlockProbes[b.ID] = new(atomic.Int64)
	}
	n.gen.Add(1)
}

// Block returns the block with the given id, or nil.
func (n *Network) Block(id BlockID) *Block {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blocks[id]
}

// BlockIDs returns all registered block ids in ascending order, so callers
// iterating the network never inherit map order.
func (n *Network) BlockIDs() []BlockID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]BlockID, 0, len(n.blocks))
	for id := range n.blocks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeCore is the ICMP-layer delivery path with routing already resolved:
// consult the tap, evaluate the block's behavior at now, and build the
// reply. echo is the caller-parsed request (echoOK false marks a malformed
// or non-request message). scratch is the empty ICMP-layer scratch to
// append the reply into (nil allocates fresh); the possibly-grown backing
// is returned so the owner keeps its capacity. Counter deltas accumulate in
// acc — the caller flushes. pre is the tap's outbound decision for this
// probe; memo holds what the block's probes of one instant share.
//
// The outcome lands in *resp (an out-parameter so per-probe results are
// written once instead of copied up the call chain); the ICMP scratch
// backing is the return value.
func (n *Network) probeCore(blk *Block, tap Tap, scratch []byte, dst Addr, pkt []byte, echo *icmp.Echo, echoOK bool, now time.Time, pre tapPre, memo *blockInstant, acc *statsAcc, resp *Response) []byte {
	*resp = Response{}
	if !echoOK {
		acc.malformed++
		resp.Timeout = true
		return scratch
	}

	if tap != nil {
		now = pre.t
		switch pre.v {
		case TapDrop:
			acc.lost++
			acc.timeouts++
			resp.Timeout = true
			return scratch
		case TapSendError:
			resp.Timeout, resp.SendFailed = true, true
			return scratch
		case TapAdminProhibited:
			acc.rateLimited++
			unreach := icmp.Unreachable{Code: icmp.CodeAdminProhibited, Original: pkt}
			un, uerr := unreach.MarshalAppend(scratch)
			if uerr != nil {
				acc.timeouts++
				resp.Timeout = true
				return scratch
			}
			rtt := 20 * time.Millisecond
			if blk != nil {
				rtt = blk.LatencyBase
			}
			resp.Data, resp.RTT = un, rtt
			n.inbound(tap, dst, resp, now, acc)
			return un
		}
	}

	if blk == nil {
		// Unrouted space: silence.
		acc.timeouts++
		resp.Timeout = true
		return scratch
	}

	in := memo.at(blk, now)

	// Path loss, one Bernoulli draw per round trip, keyed so retransmissions
	// (new seq) redraw but duplicates (same seq) are consistent.
	if blk.Loss > 0 {
		k := prfFloat3(n.seed^blk.Seed, dst.key(), uint64(echo.ID)<<16|uint64(echo.Seq), uint64(in.ns))
		if k < blk.Loss {
			acc.lost++
			acc.timeouts++
			resp.Timeout = true
			return scratch
		}
	}

	// Does the host answer now?
	if in.down || blk.hosts == nil || !blk.hosts.up(dst.Host, &in.instant) {
		// During an outage an upstream gateway may answer on the block's
		// behalf with destination-unreachable.
		if blk.GatewayUnreachableProb > 0 && in.down {
			u := prfFloat3(n.seed^blk.Seed^0x6a7e, dst.key(), uint64(echo.Seq), uint64(in.ns))
			if u < blk.GatewayUnreachableProb {
				unreach := icmp.Unreachable{Code: icmp.CodeHostUnreachable, Original: pkt}
				un, err := unreach.MarshalAppend(scratch)
				if err == nil {
					acc.replies++
					resp.Data, resp.RTT = un, blk.LatencyBase
					n.inbound(tap, dst, resp, now, acc)
					return un
				}
			}
		}
		acc.timeouts++
		resp.Timeout = true
		return scratch
	}

	if !blk.allowReply(now) {
		acc.rateLimited++
		acc.timeouts++
		resp.Timeout = true
		return scratch
	}

	// Build the echo reply straight from the parsed request: same ID, Seq,
	// and payload (echo.Payload aliases pkt; MarshalAppend copies it into
	// the reply, so the alias never outlives this call).
	echoReply := icmp.Echo{Reply: true, ID: echo.ID, Seq: echo.Seq, Payload: echo.Payload}
	reply, err := echoReply.MarshalAppend(scratch)
	if err != nil {
		// Cannot happen for a parsed request, but fail closed.
		acc.malformed++
		resp.Timeout = true
		return scratch
	}
	rtt := blk.LatencyBase
	if blk.LatencyJitter > 0 {
		j := prfFloat3(n.seed^blk.Seed^0x9badcafe, dst.key(), uint64(echo.Seq), uint64(in.ns))
		rtt += time.Duration(j * float64(blk.LatencyJitter))
	}
	acc.replies++
	resp.Data, resp.RTT = reply, rtt
	n.inbound(tap, dst, resp, now, acc)
	return reply
}

// inbound runs a delivered reply back through the tap, which may corrupt
// or drop it, mutating resp in place.
func (n *Network) inbound(tap Tap, dst Addr, resp *Response, now time.Time, acc *statsAcc) {
	if tap == nil || resp.Data == nil {
		return
	}
	data := tap.Inbound(dst, resp.Data, now)
	if data == nil {
		acc.timeouts++
		*resp = Response{Timeout: true}
		return
	}
	resp.Data = data
}

// deliverCore is the IP-layer delivery path with routing resolved and the
// payload echo pre-parsed: charge the path's hop count against the TTL,
// run the ICMP core, and wrap any reply back into an IPv4 datagram with
// source and destination swapped. The outcome lands in *resp (see
// probeCore); it returns the possibly-grown ICMP and IP scratch backings
// so the owner keeps their capacity. DeliverBatch runs every packet through
// it; so does the tests' sequential oracle (DeliverIPRef), which is what
// makes batching a reordering of work, never of results.
func (n *Network) deliverCore(blk *Block, tap Tap, icmpScratch, ipScratch []byte, hdr *ipv4.Header, dst Addr, payload []byte, echo *icmp.Echo, echoOK bool, now time.Time, pre tapPre, memo *blockInstant, acc *statsAcc, resp *Response) ([]byte, []byte) {
	acc.probes++
	hops := 0
	if blk != nil {
		hops = blk.hops
		// The packet must survive the path.
		if int(hdr.TTL) <= hops {
			acc.timeouts++
			*resp = Response{Timeout: true}
			return icmpScratch, ipScratch
		}
	}
	icmpOut := n.probeCore(blk, tap, icmpScratch, dst, payload, echo, echoOK, now, pre, memo, acc, resp)
	if resp.Timeout || resp.Data == nil {
		return icmpOut, ipScratch
	}
	replyHdr := ipv4.Header{
		ID:       hdr.ID,
		TTL:      byte(ipv4.DefaultTTL - min(hops, ipv4.DefaultTTL-1)),
		Protocol: ipv4.ProtoICMP,
		Src:      hdr.Dst,
		Dst:      hdr.Src,
	}
	// resp.Data lives in the ICMP scratch (or a tap-corrupted copy); the
	// wrap appends into the distinct IP scratch, so no self-overlapping copy.
	wrapped, err := replyHdr.MarshalAppend(ipScratch, resp.Data)
	if err != nil {
		acc.malformed++
		*resp = Response{Timeout: true}
		return icmpOut, ipScratch
	}
	resp.Data = wrapped
	return icmpOut, wrapped
}

// registerBlockCounter registers (or returns the existing) per-block probe
// counter for id under the write lock. Counter pointers are stable: once
// registered a counter is never replaced, so cached pointers stay valid
// for the network's lifetime. Off the steady-state path — AddBlock
// pre-registers; only probes into unrouted space land here.
func (n *Network) registerBlockCounter(id BlockID) *atomic.Int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.perBlockProbes[id]
	if c == nil {
		//lint:allow hotalloc: one-time lazy registration for unrouted blocks, not reached on warm rounds
		c = new(atomic.Int64)
		n.perBlockProbes[id] = c
	}
	return c
}

// ProbesToBlock returns how many probes were addressed to the block.
func (n *Network) ProbesToBlock(id BlockID) int64 {
	n.mu.RLock()
	c := n.perBlockProbes[id]
	n.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// String summarizes counters for logs.
func (c *Counters) String() string {
	return fmt.Sprintf("probes=%d replies=%d timeouts=%d lost=%d malformed=%d",
		c.Probes.Load(), c.Replies.Load(), c.Timeouts.Load(), c.Lost.Load(), c.Malformed.Load())
}
