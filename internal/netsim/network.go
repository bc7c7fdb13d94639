// Package netsim simulates the IPv4 edge the paper measures: /24 blocks of
// addresses with per-address behaviour models (always-on, diurnal with
// phase and noise, intermittent, dead), per-block path loss, and
// whole-block outages. Probes enter and leave as marshalled ICMP packets,
// so the measurement pipeline above exercises a real encode/decode path.
//
// All randomness is a pure function of (seed, identifiers, time quantum),
// so a simulation is exactly reproducible and answers are consistent when
// an address is probed twice in the same round — the property that makes
// ground-truth availability well defined. The draws themselves come from
// the canonical PRF in internal/prf.
package netsim

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
	"sleepnet/internal/prf"
)

// Response is the outcome of one probe round trip.
type Response struct {
	// Data is the raw reply packet; nil when the probe timed out.
	//
	// Lifetime: Data is a view into the BatchBuffer the probe was delivered
	// through, valid only until the next DeliverBatch on that buffer.
	Data []byte
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
	// resolved counts the routes batch caches have resolved under mu: one
	// per cache miss.
	resolved atomic.Int64
}

// tapPre carries a probe's outbound tap decision, made for its whole batch
// up front, into the delivery core. Unused without a tap.
type tapPre struct {
	t time.Time
	v TapVerdict
}

// NewNetwork creates an empty simulated network with the given seed.
func NewNetwork(seed uint64) *Network {
	return &Network{
		blocks: make(map[BlockID]*Block),
		seed:   seed,
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
	b.outages = b.outages[:0]
	for _, iv := range b.Outages {
		b.outages = append(b.outages, nsSpan{iv.Start.UnixNano(), iv.End.UnixNano()})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocks[b.ID] = b
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

// probeCore is the ICMP-layer delivery path with routing already resolved
// into e: consult the tap, evaluate the block's behavior at the delivery
// instant, and build the reply. in is the batch's instant, converted once
// per batch; a probe the tap skews to another time converts its own. echo
// is the caller-parsed request (echoOK false marks a malformed or
// non-request message). scratch is the empty ICMP-layer scratch to append
// the reply into (nil allocates fresh); the possibly-grown backing is
// returned so the owner keeps its capacity. pre is the tap's outbound
// decision for this probe.
//
// The outcome lands in *resp (an out-parameter so per-probe results are
// written once instead of copied up the call chain); the ICMP scratch
// backing is the return value.
func (n *Network) probeCore(e *routeEntry, tap Tap, scratch []byte, dst Addr, pkt []byte, echo *icmp.Echo, echoOK bool, in *instant, pre tapPre, resp *Response) []byte {
	*resp = Response{}
	blk, now := e.blk, in.now
	if !echoOK {
		resp.Timeout = true
		return scratch
	}

	if tap != nil {
		now = pre.t
		switch pre.v {
		case TapDrop:
			resp.Timeout = true
			return scratch
		case TapSendError:
			resp.Timeout, resp.SendFailed = true, true
			return scratch
		case TapAdminProhibited:
			unreach := icmp.Unreachable{Code: icmp.CodeAdminProhibited, Original: pkt}
			un, uerr := unreach.MarshalAppend(scratch)
			if uerr != nil {
				resp.Timeout = true
				return scratch
			}
			resp.Data = un
			n.inbound(tap, dst, resp, now)
			return un
		}
	}

	if blk == nil {
		// Unrouted space: silence.
		resp.Timeout = true
		return scratch
	}

	if now != in.now {
		var skewed instant
		skewed.set(now)
		in = &skewed
	}
	down := e.downAt(in.ns)

	// Path loss, one Bernoulli draw per round trip, keyed so retransmissions
	// (new seq) redraw but duplicates (same seq) are consistent.
	if blk.Loss > 0 {
		k := prf.Float3(n.seed^blk.Seed, dst.key(), uint64(echo.ID)<<16|uint64(echo.Seq), uint64(in.ns))
		if k < blk.Loss {
			resp.Timeout = true
			return scratch
		}
	}

	// Does the host answer now?
	if down || blk.hosts == nil || !blk.hosts.up(dst.Host, in) {
		// During an outage an upstream gateway may answer on the block's
		// behalf with destination-unreachable.
		if blk.GatewayUnreachableProb > 0 && down {
			u := prf.Float3(n.seed^blk.Seed^0x6a7e, dst.key(), uint64(echo.Seq), uint64(in.ns))
			if u < blk.GatewayUnreachableProb {
				unreach := icmp.Unreachable{Code: icmp.CodeHostUnreachable, Original: pkt}
				un, err := unreach.MarshalAppend(scratch)
				if err == nil {
					resp.Data = un
					n.inbound(tap, dst, resp, now)
					return un
				}
			}
		}
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
		resp.Timeout = true
		return scratch
	}
	resp.Data = reply
	n.inbound(tap, dst, resp, now)
	return reply
}

// inbound runs a delivered reply back through the tap, which may corrupt
// or drop it, mutating resp in place.
func (n *Network) inbound(tap Tap, dst Addr, resp *Response, now time.Time) {
	if tap == nil || resp.Data == nil {
		return
	}
	data := tap.Inbound(dst, resp.Data, now)
	if data == nil {
		*resp = Response{Timeout: true}
		return
	}
	resp.Data = data
}

// deliverCore is the IP-layer delivery path with routing resolved and the
// payload echo pre-parsed: run the ICMP core, and wrap any reply back into
// an IPv4 datagram with source and destination swapped and the default
// TTL. The outcome lands in *resp (see probeCore); it returns the
// possibly-grown ICMP and IP scratch backings so the owner keeps their
// capacity. DeliverBatch runs every packet through
// it; so does the tests' sequential oracle (DeliverIPRef), which is what
// makes batching a reordering of work, never of results.
func (n *Network) deliverCore(e *routeEntry, tap Tap, icmpScratch, ipScratch []byte, hdr *ipv4.Header, dst Addr, payload []byte, echo *icmp.Echo, echoOK bool, in *instant, pre tapPre, resp *Response) ([]byte, []byte) {
	icmpOut := n.probeCore(e, tap, icmpScratch, dst, payload, echo, echoOK, in, pre, resp)
	if resp.Timeout || resp.Data == nil {
		return icmpOut, ipScratch
	}
	replyHdr := ipv4.Header{
		ID:       hdr.ID,
		Protocol: ipv4.ProtoICMP,
		Src:      hdr.Dst,
		Dst:      hdr.Src,
	}
	// resp.Data lives in the ICMP scratch (or a tap-corrupted copy); the
	// wrap appends into the distinct IP scratch, so no self-overlapping copy.
	wrapped, err := replyHdr.MarshalAppend(ipScratch, resp.Data)
	if err != nil {
		*resp = Response{Timeout: true}
		return icmpOut, ipScratch
	}
	resp.Data = wrapped
	return icmpOut, wrapped
}
