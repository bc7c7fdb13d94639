// Package trinocular implements the adaptive outage prober the paper's
// estimators consume (Quan, Heidemann, Pradkin, SIGCOMM 2013): per /24
// block, each 11-minute round sends 1..15 ICMP echo probes to the block's
// ever-active addresses in a pseudorandom cyclic walk, stopping as soon as
// Bayesian belief about the block's state crosses a threshold — in
// particular on the first positive response. The per-round observation
// (p positives out of t probes) is deliberately biased toward positives;
// the availability estimators in internal/core are designed around exactly
// this bias (E[p]/E[t] = A for the truncated-geometric stopping rule).
//
// The prober also models the operational detail behind the paper's Figure
// 10 artifact: the real deployment restarted its prober every 5.5 hours,
// and restart rounds probe cold (single probe, reset belief), injecting
// periodic variance at ~4.4 cycles/day.
package trinocular

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/prf"
	"sleepnet/internal/timeseries"
)

// ProbeNetwork is the slice of the network the prober needs: delivery of a
// batch of full IPv4 packets in one boundary crossing. *netsim.Network
// implements it; a raw-socket adapter could too.
type ProbeNetwork interface {
	// DeliverBatch delivers pkts in order at virtual time now, returning
	// one Response per packet.
	//
	//lint:aliases return: every Response.Data (and the slice itself) is a view into buf's reply arena, valid only until the next DeliverBatch on the same buffer
	DeliverBatch(buf *netsim.BatchBuffer, pkts [][]byte, now time.Time) []netsim.Response
}

// ProbeNetworkBatched is ProbeNetwork under the name it had while a
// per-packet interface existed beside it. Kept because bench/enact.go names
// it, and a change to the program may not edit the benchmark.
type ProbeNetworkBatched = ProbeNetwork

// The parts of the paper's Trinocular policy that no campaign varies.
const (
	// beliefUp and beliefDown are the posterior thresholds that stop a
	// round.
	beliefUp   = 0.9
	beliefDown = 0.1
	// MinEverActive rejects sparse blocks from probing; the paper's
	// Trinocular policy, and the cause of its wireless false negatives at
	// USC.
	MinEverActive = 15
	// icmpID is the ICMP identifier the prober stamps on its probes.
	icmpID uint16 = 0
	// positiveWhenDown is the probability of a positive answer from a down
	// block (spoofing/measurement error); it keeps the belief update
	// well-defined. Typed, so that 1-positiveWhenDown rounds as the float64
	// subtraction it replaces did.
	positiveWhenDown float64 = 1e-3
)

// srcIP is the vantage point's source address stamped on probes
// (TEST-NET-2).
var srcIP = ipv4.Addr{198, 51, 100, 1}

// Config tunes the prober. The zero value is the paper's deployment: up to
// MaxProbesPerRound adaptive probes a round, no restarts, no retries.
type Config struct {
	// RestartInterval models periodic prober restarts; rounds landing on a
	// restart boundary probe cold. Zero disables restarts.
	RestartInterval time.Duration
	// FixedProbes, when positive, disables adaptive stopping: every round
	// sends exactly this many probes regardless of belief. This is the
	// ablation baseline for the stop-on-first-positive policy — unbiased
	// like the adaptive rule but far more expensive.
	FixedProbes int
	// Retry enables per-probe retry of vantage-local send failures with
	// exponential backoff and jitter, bounded so a round cannot outgrow its
	// 11-minute slot. Silence is never retried — a timeout is evidence about
	// the target, a send error is not.
	Retry RetryConfig
	// Metrics, when non-nil, receives the prober's operational counters
	// (probes sent, positives, retries, rate-limited and cut-short rounds,
	// backoff). Nil keeps the probing path uninstrumented and overhead-free.
	Metrics *metrics.Registry
}

// RetryConfig tunes per-probe retry of transient (vantage-local) failures.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts per probe including the
	// first; values below 2 disable retrying.
	MaxAttempts int
}

const (
	// MaxProbesPerRound caps the probes an adaptive round sends to one
	// block: the paper's 15.
	MaxProbesPerRound = 15
	// restartDowntimeFrac is the fraction of a round the prober is down
	// during a restart. Blocks are probed at a stable offset within each
	// round, so only blocks whose offset falls inside the downtime window
	// experience the cold round — the same blocks every restart, which is
	// what makes the artifact coherent for them and absent for the rest.
	restartDowntimeFrac = 0.1
	// retryBaseBackoff is the delay before the first retry; each further
	// retry doubles it up to retryMaxBackoff.
	retryBaseBackoff = 2 * time.Second
	// retryMaxBackoff caps the doubling retry delay.
	retryMaxBackoff = 60 * time.Second
	// retryJitterFrac adds a uniform draw in [0, retryJitterFrac) of the
	// delay so retries from many blocks do not synchronize.
	retryJitterFrac = 0.5
	// retryBudget caps the cumulative in-round backoff, under the 11-minute
	// round.
	retryBudget = 9 * time.Minute
)

// retryDelay returns the backoff before retry number attempt (1-based),
// before jitter.
func retryDelay(attempt int) time.Duration {
	d := retryBaseBackoff
	for i := 1; i < attempt && d < retryMaxBackoff; i++ {
		d *= 2
	}
	return min(d, retryMaxBackoff)
}

// ErrTooSparse is returned by AddBlock for blocks below MinEverActive.
var ErrTooSparse = errors.New("trinocular: block has too few ever-active addresses")

// RoundObs is the observation one probing round produces for one block.
type RoundObs struct {
	Round    int  // 0-based round counter for this block
	Positive int  // positive responses (0 or 1 under stop-on-first-positive)
	Total    int  // probes sent this round (1..MaxProbesPerRound)
	Up       bool // block state according to belief after this round
	Changed  bool // state flipped this round (outage start or recovery)
	Cold     bool // this was a restart (cold) round
	// Unreachable counts ICMP destination-unreachable answers this round —
	// negative but informative evidence (a gateway confirmed the block is
	// gone, rather than a probe simply timing out).
	Unreachable int
	// Retries counts send attempts repeated after vantage-local failures.
	Retries int
	// SendErrors counts probes that failed locally even after retries; they
	// carry no evidence about the block and are excluded from Total.
	SendErrors int
	// RateLimited is 1 when the round was cut short by an administratively-
	// prohibited answer (measurement interference, not evidence).
	RateLimited int
	// Log is what the round observed, probe by probe: Outcomes() codes, with
	// Retries all ReplayRound needs to re-derive the round.
	Log OutcomeLog
}

// Failed reports whether the round produced no usable observation: every
// probe died at the vantage point or was eaten by rate limiting. The
// pointer receiver (here and on Outcomes) keeps per-round hot paths from
// copying the struct when inlining falls through.
func (o *RoundObs) Failed() bool { return o.Total == 0 }

// Outcomes is the length of the round's Log: every probe that counted,
// plus the send error or rate-limited answer that cut the round short.
func (o *RoundObs) Outcomes() int { return o.Total + o.SendErrors + o.RateLimited }

// blockState is per-block prober memory.
type blockState struct {
	id     netsim.BlockID
	walk   []byte // pseudorandom permutation of ever-active hosts
	pos    int
	belief float64
	up     bool
	round  int
	seq    uint16
	// downStreak counts consecutive rounds that concluded "down"; a block
	// is only declared down after two such rounds (debouncing), because a
	// single all-negative round happens by chance on low-availability
	// blocks (0.7^12 ≈ 1.4% per round at A = 0.3) and would flood the
	// outage log with false positives. Recovery needs no debounce — a
	// positive response is near-conclusive evidence of up.
	downStreak int
	// pktTmpl is the prefab probe packet for this block: every byte that
	// does not change between probes (IP version/TTL/protocol/src, the /24
	// prefix of dst, the ICMP type and probe ID) is marshalled once at
	// AddBlock time. A probe then copies the template and patches the five
	// varying fields — IP ID, host octet, echo sequence, and the two
	// checksums, folded from the precomputed partial sums below — which is
	// byte-identical to the generic icmp+ipv4 MarshalAppend chain (pinned
	// by TestProbeTemplateMatchesMarshal) at a fraction of the cost.
	pktTmpl  [probePktLen]byte
	ipPart   uint32 // ones-complement sum of pktTmpl's IP header words (ID, checksum, host octet zero)
	echoPart uint32 // ones-complement sum of pktTmpl's echo words (seq, checksum zero)
}

// probePktLen is the wire size of every probe the prober sends: an
// option-less IPv4 header around a payload-less ICMP echo request.
const probePktLen = ipv4.HeaderLen + icmp.EchoHeaderLen

// initTemplate marshals the static bytes of the block's probe packet and
// the checksum partial sums. Called once per AddBlock.
func (st *blockState) initTemplate(probeID uint16, src ipv4.Addr) {
	b := st.pktTmpl[:]
	b[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(b[2:4], probePktLen)
	b[8] = ipv4.DefaultTTL
	b[9] = ipv4.ProtoICMP
	copy(b[12:16], src[:])
	ip := st.id.Addr(0).IP()
	copy(b[16:20], ip[:])
	b[ipv4.HeaderLen] = icmp.TypeEchoRequest
	binary.BigEndian.PutUint16(b[ipv4.HeaderLen+4:], probeID)
	var sum uint32
	for i := 0; i < ipv4.HeaderLen; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	st.ipPart = sum
	st.echoPart = uint32(icmp.TypeEchoRequest)<<8 + uint32(probeID)
}

// appendProbe appends the marshalled probe for (st.seq, host) to dst and
// returns the grown slice. The bytes are exactly what the generic marshal
// chain would produce: the template supplies the static bytes, and each
// checksum is the fold of its partial sum plus the varying words (the
// ones-complement sum is commutative, so adding the ID/seq/host words to
// the template's sum equals summing the patched packet).
func (st *blockState) appendProbe(dst []byte, host byte) []byte {
	off := len(dst)
	dst = append(dst, st.pktTmpl[:]...)
	b := dst[off:]
	binary.BigEndian.PutUint16(b[4:6], st.seq)
	b[19] = host
	s := st.ipPart + uint32(st.seq) + uint32(host)
	for s > 0xffff {
		s = (s >> 16) + (s & 0xffff)
	}
	binary.BigEndian.PutUint16(b[10:12], ^uint16(s))
	binary.BigEndian.PutUint16(b[ipv4.HeaderLen+6:], st.seq)
	s = st.echoPart + uint32(st.seq)
	for s > 0xffff {
		s = (s >> 16) + (s & 0xffff)
	}
	binary.BigEndian.PutUint16(b[ipv4.HeaderLen+2:], ^uint16(s))
	return dst
}

// sendScratch is the wire scratch behind sendProbe: a one-packet batch and
// a BatchBuffer of its own. It is deliberately not the wavefront's buffer:
// a lane that retries in the middle of a phase delivers through its
// BatchContext's scratch, so the phase's reply views — which later lanes
// are still to be classified from — stay valid.
type sendScratch struct {
	pkts [1][]byte
	net  netsim.BatchBuffer
}

// Prober drives adaptive probing of one block, as Trinocular keeps its
// belief, walk and restart window per /24. A prober is driven by one
// goroutine at a time. Every campaign builds one prober per block (the
// monitor's shards and the pipeline alike) and drives many of them as one
// wavefront through ProbeRoundsBatchGroup.
type Prober struct {
	cfg     Config
	net     ProbeNetwork
	seed    uint64
	epoch   time.Time    // restart phase reference: PinEpoch's, else the first round's
	epochNS int64        // epoch.UnixNano(), what isColdRound measures from
	st      *blockState  // the block AddBlock registered; nil before
	wire    *sendScratch // ProbeRound's send scratch, allocated on its first round

	probesSent atomic.Int64
	m          proberMetrics
}

// proberMetrics caches the prober's instruments. All fields are nil when no
// registry is configured; counter methods are no-ops on nil receivers, so
// the probing path carries only a nil-check per event.
type proberMetrics struct {
	probes            *metrics.Counter
	positives         *metrics.Counter
	unreachables      *metrics.Counter
	retries           *metrics.Counter
	sendErrors        *metrics.Counter
	rounds            *metrics.Counter
	roundsCold        *metrics.Counter
	roundsRateLimited *metrics.Counter
	roundsCutShort    *metrics.Counter
	roundsFailed      *metrics.Counter
	backoffNanos      *metrics.Counter
}

func newProberMetrics(r *metrics.Registry) proberMetrics {
	if r == nil {
		return proberMetrics{}
	}
	return proberMetrics{
		probes:            r.Counter("trinocular.probes_sent"),
		positives:         r.Counter("trinocular.positives"),
		unreachables:      r.Counter("trinocular.unreachables"),
		retries:           r.Counter("trinocular.retries"),
		sendErrors:        r.Counter("trinocular.send_errors"),
		rounds:            r.Counter("trinocular.rounds"),
		roundsCold:        r.Counter("trinocular.rounds_cold"),
		roundsRateLimited: r.Counter("trinocular.rounds_rate_limited"),
		roundsCutShort:    r.Counter("trinocular.rounds_cut_short"),
		roundsFailed:      r.Counter("trinocular.rounds_failed"),
		backoffNanos:      r.Counter("trinocular.backoff_ns"),
	}
}

// ProbesSent reports how many probes the prober has emitted.
func (p *Prober) ProbesSent() int64 { return p.probesSent.Load() }

// New creates a prober over the given network.
func New(net ProbeNetwork, cfg Config, seed uint64) *Prober {
	return &Prober{
		cfg:  cfg,
		net:  net,
		seed: seed,
		m:    newProberMetrics(cfg.Metrics),
	}
}

// AddBlock registers the prober's block given its historically ever-active
// host octets (Trinocular seeds this from census history). Blocks with
// fewer than MinEverActive hosts are rejected with ErrTooSparse, and so is
// a second block: it needs a prober of its own.
func (p *Prober) AddBlock(id netsim.BlockID, everActive []byte) error {
	if p.st != nil {
		return fmt.Errorf("trinocular: prober of %s cannot also probe %s", p.st.id, id)
	}
	if len(everActive) < MinEverActive {
		return fmt.Errorf("%w: %s has %d < %d", ErrTooSparse, id, len(everActive), MinEverActive)
	}
	st := &blockState{
		id:     id,
		walk:   append([]byte(nil), everActive...),
		belief: 0.5,
		up:     true,
	}
	st.initTemplate(icmpID, srcIP)
	shuffle(st.walk, p.seed^uint64(id))
	p.st = st
	return nil
}

// block returns the prober's block state, or an error before AddBlock.
func (p *Prober) block() (*blockState, error) {
	if p.st == nil {
		return nil, errors.New("trinocular: prober has no block")
	}
	return p.st, nil
}

// PinEpoch fixes the restart-phase epoch at t, unless it is already fixed —
// by an earlier pin or at the time of the prober's first round. A campaign
// that resumes mid-way pins its start, so cold rounds fall on the same
// virtual times however it got there.
func (p *Prober) PinEpoch(t time.Time) {
	if p.epoch.IsZero() {
		p.epoch = t
		p.epochNS = t.UnixNano()
	}
}

// walkRands recycles shuffle's generators: each one's 4.9 KB register is
// reseeded in O(1) and built only as far as a walk's draws read it.
var walkRands = sync.Pool{New: func() any { return prf.LegacyRand(0) }}

// shuffle permutes b by rand.New(rand.NewSource(int64(seed))).Shuffle.
func shuffle(b []byte, seed uint64) {
	r := walkRands.Get().(*rand.Rand)
	r.Seed(int64(seed))
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	walkRands.Put(r)
}

// isColdRound reports whether now falls in the first round after a prober
// restart boundary.
func (p *Prober) isColdRound(now time.Time) bool {
	if p.cfg.RestartInterval <= 0 {
		return false
	}
	// Integer nanoseconds, not now.Sub(p.epoch): the same answer for every
	// campaign time (TestColdRoundMatchesSub) at a fraction of Sub's cost,
	// paid once a block a round.
	since := time.Duration(now.UnixNano() - p.epochNS)
	if since < 0 {
		return false
	}
	phase := since % p.cfg.RestartInterval
	// A round is "cold" when it is the first round at or after a restart:
	// the boundary fell within the preceding 11 minutes.
	return phase < timeseries.DefaultRound
}

// inDowntimeWindow reports whether the block's stable within-round probing
// offset falls inside the restart downtime window.
func (p *Prober) inDowntimeWindow(id netsim.BlockID) bool {
	h := p.seed ^ uint64(id) ^ 0x0ff5e7
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	off := float64(h>>11) / (1 << 53)
	return off < restartDowntimeFrac
}

// ProbeRound probes the block once, at virtual time now, using the caller's
// current operational availability estimate aOp (clamped to [0.1, 1] as the
// paper's policy requires). It returns the round's biased observation. It
// is the round by definition — one probe after another, each a one-packet
// batch — and the reference ProbeRoundsBatchGroup is tested against.
func (p *Prober) ProbeRound(now time.Time, aOp float64) (RoundObs, error) {
	st, err := p.block()
	if err != nil {
		return RoundObs{}, err
	}
	if p.wire == nil {
		p.wire = new(sendScratch)
	}
	p.PinEpoch(now)
	var rs roundState
	p.beginRound(&rs, st, now, aOp)
	p.sequentialRound(p.wire, &rs, now)
	p.finishRound(&rs)
	return rs.obs, nil
}

// roundState is the in-flight state of one block's probing round:
// beginRound opens it, prepareProbe/applyOutcome advance it one probe at a
// time, finishRound folds it back into the block's memory. ProbeRound and
// the wavefront (ProbeRoundsBatchGroup) drive the same probes through this
// one state machine — there is no second belief/stop/debounce
// implementation to drift.
type roundState struct {
	st        *blockState
	obs       RoundObs
	aOp       float64
	belief    float64
	maxProbes int
	// backoffUsed shifts every later probe of the round: retried probes
	// really happen that much later in virtual time, which is what lets a
	// retry escape a vantage blackout window.
	backoffUsed time.Duration
	// sent counts marshalled send attempts (including retries). It flushes
	// to the prober's probe counters once per round in finishRound, so the
	// hot loop never touches an atomic or a metrics counter per probe.
	sent int64
	done bool
}

// beginRound opens a round for the block into rs: clamps the caller's
// operational availability estimate, bumps the round counter, applies the
// cold-restart reset, clamps the prior, and fixes the probe budget. It
// initializes rs in place (rather than returning a roundState) because the
// struct is large enough that returning it by value shows up as copy cost
// on the batched hot path.
func (p *Prober) beginRound(rs *roundState, st *blockState, now time.Time, aOp float64) {
	if aOp < 0.1 {
		aOp = 0.1
	}
	if aOp > 1 {
		aOp = 1
	}
	// Field-wise reset, not a struct literal: assigning a ~128-byte literal
	// through the pointer compiles to a temporary plus duffcopy, which is
	// measurable at one call per block per round.
	rs.st = st
	rs.obs = RoundObs{Round: st.round}
	rs.aOp = aOp
	rs.belief = st.belief
	rs.maxProbes = MaxProbesPerRound
	rs.backoffUsed = 0
	rs.sent = 0
	rs.done = false
	st.round++
	if p.isColdRound(now) && p.inDowntimeWindow(st.id) {
		// Restart: the prober process came back with no memory — belief
		// resets, the round probes cold, and the pseudorandom walk starts
		// over from the beginning. The walk reset is what makes restarts
		// visible in the data: cold rounds always sample the same leading
		// addresses, whose availability differs from the block mean in
		// heterogeneous blocks (the Fig 10 artifact at ~4.4 cycles/day).
		rs.obs.Cold = true
		rs.belief = 0.5
		rs.maxProbes = 1
		st.pos = 0
	}
	// Keep the prior away from saturation so new evidence can move it.
	rs.belief = clamp(rs.belief, 0.05, 0.95)
	if p.cfg.FixedProbes > 0 && !rs.obs.Cold {
		rs.maxProbes = p.cfg.FixedProbes
	}
}

// prepareProbe advances the walk and sequence number for the round's next
// probe and returns the host octet to target. The inputs of every probe —
// target, sequence, timestamp — are fixed here, before any outcome is
// known, which is what lets a wavefront phase marshal the next probe of
// every lane up front without changing the schedule.
func (rs *roundState) prepareProbe() byte {
	st := rs.st
	host := st.walk[st.pos]
	st.pos = (st.pos + 1) % len(st.walk)
	st.seq++
	return host
}

// sequentialRound drives rs to completion one probe at a time through the
// send scratch w, from wherever it currently stands: ProbeRound runs whole
// rounds through it, and the wavefront hands over lanes that hit a
// vantage-local send failure (whose remaining probes happen at
// backoff-shifted times and so leave the wavefront).
func (p *Prober) sequentialRound(w *sendScratch, rs *roundState, now time.Time) {
	for !rs.done {
		host := rs.prepareProbe()
		outcome := p.sendProbe(w, rs, host, now.Add(rs.backoffUsed))
		if outcome == outcomeSendError {
			outcome = p.retrySendErrors(w, rs, host, now)
		}
		p.applyOutcome(rs, outcome)
	}
}

// retrySendErrors re-sends a probe that failed at the vantage point through
// the send scratch w, with exponential backoff, jitter, and the round's
// cumulative backoff budget. It returns the final outcome — still
// outcomeSendError when the attempt cap or budget is exhausted first.
func (p *Prober) retrySendErrors(w *sendScratch, rs *roundState, host byte, now time.Time) probeOutcome {
	st := rs.st
	outcome := outcomeSendError
	for attempt := 1; attempt < p.cfg.Retry.MaxAttempts; attempt++ {
		d := retryDelay(attempt)
		j := prf.Float(p.seed^0x7e77, uint64(st.id), uint64(st.seq), uint64(attempt))
		d += time.Duration(j * retryJitterFrac * float64(d))
		if rs.backoffUsed+d > retryBudget {
			break
		}
		rs.backoffUsed += d
		rs.obs.Retries++
		st.seq++
		outcome = p.sendProbe(w, rs, host, now.Add(rs.backoffUsed))
		if outcome != outcomeSendError {
			break
		}
	}
	return outcome
}

// applyOutcome folds one probe's final outcome into the round: the belief
// update, the observation counters, and every way a round can end
// (interference, vantage failure, belief crossing a threshold, probe
// budget exhausted).
func (p *Prober) applyOutcome(rs *roundState, outcome probeOutcome) {
	// Log it first. Total counts the outcomes so far: the two that do not
	// count toward it end the round.
	rs.obs.Log |= OutcomeLog(outcome) << (4 * rs.obs.Total)
	switch outcome {
	case outcomeSendError:
		// The vantage point is down and the retry budget is spent;
		// further probes this round would fail the same way. No belief
		// update — a local failure says nothing about the block.
		rs.obs.SendErrors++
		rs.done = true
		return
	case outcomeRateLimited:
		// An admin-prohibited answer means an intermediate device is
		// eating our probes: stop the round so the interference cannot
		// masquerade as down evidence and burn the reply budget.
		rs.obs.RateLimited++
		rs.done = true
		return
	case outcomePositive:
		rs.obs.Total++
		rs.obs.Positive++
		rs.belief = updateBelief(rs.belief, true, rs.aOp)
	case outcomeUnreachable:
		rs.obs.Total++
		rs.obs.Unreachable++
		// A gateway's destination-unreachable is much stronger down
		// evidence than silence: likelihood ~1% if up, ~30% if down.
		rs.belief = applyLikelihoods(rs.belief, 0.01, 0.3)
	default:
		rs.obs.Total++
		rs.belief = updateBelief(rs.belief, false, rs.aOp)
	}
	if p.cfg.FixedProbes <= 0 && (rs.belief >= beliefUp || rs.belief <= beliefDown) {
		rs.done = true
		return
	}
	if rs.obs.Total >= rs.maxProbes {
		rs.done = true
	}
}

// finishRound folds the completed round back into the block's memory
// (settle) and flushes the round's metrics — one add per counter per round,
// never one per probe. The round's observation is left in rs.obs; the
// caller copies it out once, which keeps the RoundObs from being copied
// twice per round on the hot path.
func (p *Prober) finishRound(rs *roundState) {
	rs.settle()
	p.probesSent.Add(rs.sent)
	p.m.probes.Add(rs.sent)
	p.m.rounds.Inc()
	p.m.positives.Add(int64(rs.obs.Positive))
	p.m.unreachables.Add(int64(rs.obs.Unreachable))
	p.m.retries.Add(int64(rs.obs.Retries))
	p.m.sendErrors.Add(int64(rs.obs.SendErrors))
	p.m.backoffNanos.Add(int64(rs.backoffUsed))
	if rs.obs.Cold {
		p.m.roundsCold.Inc()
	}
	if rs.obs.RateLimited > 0 {
		p.m.roundsRateLimited.Inc()
	}
	if rs.obs.SendErrors > 0 {
		// The round stopped early because the vantage point was down.
		p.m.roundsCutShort.Inc()
	}
	if rs.obs.Failed() {
		p.m.roundsFailed.Inc()
	}
}

// settle folds the completed round back into the block's memory: the
// belief and the debounced up/down state machine. It is the part of
// finishRound a replayed round runs too.
func (rs *roundState) settle() {
	st := rs.st
	st.belief = rs.belief
	newUp := st.up
	switch {
	case rs.belief >= beliefUp:
		newUp = true
		st.downStreak = 0
	case rs.belief <= beliefDown:
		st.downStreak++
		if st.downStreak >= 2 || !st.up {
			newUp = false
		}
	default:
		// In between: keep previous state (hysteresis).
		st.downStreak = 0
	}
	rs.obs.Changed = newUp != st.up
	st.up = newUp
	rs.obs.Up = newUp
}

// ReplayRound re-runs the block's round at virtual time now from what the
// round observed — the n outcomes in log and the retries it spent — instead
// of from the network. It drives the bodies the live round ran (beginRound,
// then prepareProbe and applyOutcome once an outcome, then settle), so
// given the operational estimate aOp the live round was given, the block's
// memory ends where the live round left it and the observation returned is
// the live one. A log that is not one whole round of this block — an
// unknown outcome, an outcome after the round ended, too few to end it —
// is an error, after which the block's memory is undefined. Replay flushes
// no metrics: the probes it stands for were counted when they were sent.
func (p *Prober) ReplayRound(now time.Time, aOp float64, log OutcomeLog, n, retries int) (RoundObs, error) {
	st, err := p.block()
	if err != nil {
		return RoundObs{}, err
	}
	id := st.id
	if n < 1 || n > MaxLoggedOutcomes || retries < 0 || log>>(4*n) != 0 {
		return RoundObs{}, fmt.Errorf("trinocular: replay of %s: a log of %d outcomes (%#x) and %d retries is not a round", id, n, uint64(log), retries)
	}
	p.PinEpoch(now)
	var rs roundState
	p.beginRound(&rs, st, now, aOp)
	for k := 0; k < n; k++ {
		outcome := probeOutcome(log >> (4 * k) & 0xf)
		switch {
		case int(outcome) >= NumOutcomes:
			return RoundObs{}, fmt.Errorf("trinocular: replay of %s: unknown outcome code %d", id, outcome)
		case rs.done:
			return RoundObs{}, fmt.Errorf("trinocular: replay of %s: outcome %d of %d logged after the round ended", id, k+1, n)
		}
		rs.prepareProbe()
		p.applyOutcome(&rs, outcome)
	}
	if !rs.done {
		return RoundObs{}, fmt.Errorf("trinocular: replay of %s: %d outcomes do not end the round", id, n)
	}
	// A retry re-sends the same host under the next sequence number.
	st.seq += uint16(retries)
	rs.obs.Retries = retries
	rs.settle()
	return rs.obs, nil
}

// probeOutcome distinguishes what a probe round trip produced.
type probeOutcome int

const (
	// outcomeNegative is silence (timeout) or an unusable reply.
	outcomeNegative probeOutcome = iota
	// outcomePositive is a matching echo reply.
	outcomePositive
	// outcomeUnreachable is an ICMP destination-unreachable quoting our
	// probe — an informative negative.
	outcomeUnreachable
	// outcomeSendError is a vantage-local send failure (no evidence,
	// retryable).
	outcomeSendError
	// outcomeRateLimited is an administratively-prohibited unreachable
	// quoting our probe: rate limiting, i.e. interference rather than
	// evidence.
	outcomeRateLimited
)

// OutcomeLog is what one round observed: the final outcome of each probe
// its round machine consumed, in order, four bits apiece with the first in
// the lowest nibble — 0 silence, 1 positive, 2 unreachable, 3 a send error
// that outlived its retries, 4 rate-limited (the last two end a round). A
// round longer than MaxLoggedOutcomes keeps only its first outcomes.
type OutcomeLog uint64

const (
	// MaxLoggedOutcomes is how many outcomes an OutcomeLog holds.
	MaxLoggedOutcomes = 16
	// NumOutcomes bounds the codes of an OutcomeLog.
	NumOutcomes = int(outcomeRateLimited) + 1
)

// sendProbe emits one IPv4-encapsulated ICMP echo for the round's current
// sequence number, alone — a one-packet batch through the send scratch w —
// and classifies the answer. The attempt is tallied in rs.sent so the probe
// counters flush once per round instead of once per probe.
func (p *Prober) sendProbe(w *sendScratch, rs *roundState, host byte, now time.Time) probeOutcome {
	st := rs.st
	w.pkts[0] = st.appendProbe(w.pkts[0][:0], host)
	rs.sent++
	// The response is a view into w.net: valid until the next sendProbe
	// through w, which is after its only use below.
	resps := p.net.DeliverBatch(&w.net, w.pkts[:], now)
	return p.classifyResponse(resps[0], ipv4.Addr(st.id.Addr(host).IP()), st.seq)
}

// classifyResponse decides what one probe's round trip produced: a matching
// echo reply from the probed address is positive; a destination-unreachable
// quoting our probe is an informative negative (admin-prohibited meaning
// rate limiting); anything else (timeout, malformed, mismatched) counts as
// silence.
func (p *Prober) classifyResponse(resp netsim.Response, target ipv4.Addr, seq uint16) probeOutcome {
	if resp.SendFailed {
		return outcomeSendError
	}
	if resp.Timeout || resp.Data == nil {
		return outcomeNegative
	}
	var rHdr ipv4.Header
	payload, err := ipv4.ParseHeader(&rHdr, resp.Data)
	if err != nil || rHdr.Protocol != ipv4.ProtoICMP {
		return outcomeNegative
	}
	if rHdr.Dst != srcIP {
		return outcomeNegative
	}
	switch icmp.TypeOf(payload) {
	case icmp.TypeDestUnreachable:
		var un icmp.Unreachable
		if err := icmp.ParseUnreachableInto(&un, payload); err != nil {
			return outcomeNegative
		}
		// The quoted original must be our probe. Gateways may quote the
		// full IPv4 datagram or just its ICMP payload; accept both. An
		// echo's type byte never reads as IP version 4, so the first
		// nibble tells the two apart without building ParseHeader's error
		// value for every bare quote (it allocates; this path may not).
		inner := un.Original
		if len(inner) >= ipv4.HeaderLen && inner[0]>>4 == 4 {
			var innerHdr ipv4.Header
			if innerPayload, perr := ipv4.ParseHeader(&innerHdr, inner); perr == nil {
				inner = innerPayload
			}
		}
		var orig icmp.Echo
		if err := icmp.ParseEchoInto(&orig, inner); err != nil ||
			orig.Reply || orig.ID != icmpID || orig.Seq != seq {
			return outcomeNegative
		}
		if un.Code == icmp.CodeAdminProhibited {
			return outcomeRateLimited
		}
		return outcomeUnreachable
	case icmp.TypeEchoReply:
		if rHdr.Src != target {
			return outcomeNegative
		}
		var reply icmp.Echo
		if err := icmp.ParseEchoInto(&reply, payload); err != nil ||
			!reply.Matches(icmpID, seq) {
			return outcomeNegative
		}
		return outcomePositive
	}
	return outcomeNegative
}

// updateBelief applies one Bayesian update to the belief that the block is
// up, given a positive or negative probe and the current availability
// estimate a = P(reply | block up, random ever-active target).
func updateBelief(b float64, positive bool, a float64) float64 {
	if positive {
		return applyLikelihoods(b, a, positiveWhenDown)
	}
	return applyLikelihoods(b, 1-a, 1-positiveWhenDown)
}

// applyLikelihoods folds P(obs|up) and P(obs|down) into the belief.
func applyLikelihoods(b, lUp, lDown float64) float64 {
	num := lUp * b
	den := num + lDown*(1-b)
	if den == 0 {
		return b
	}
	return num / den
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BlockState is the serializable per-block prober memory, carried by the
// monitor's WAL records and snapshots. The pseudorandom walk itself is
// not stored: it is a pure function of (seed, ever-active set) and is
// rebuilt by AddBlock; only the cursor position travels.
type BlockState struct {
	ID         netsim.BlockID
	Belief     float64
	Up         bool
	Round      int
	Pos        int
	Seq        uint16
	DownStreak int
}

// State snapshots the block's serializable memory. It must not be called
// before AddBlock or while a round is in flight.
func (p *Prober) State() BlockState {
	st := p.st
	return BlockState{
		ID:         st.id,
		Belief:     st.belief,
		Up:         st.up,
		Round:      st.round,
		Pos:        st.pos,
		Seq:        st.seq,
		DownStreak: st.downStreak,
	}
}

// Restore loads a snapshot taken by State into the prober, which must
// already probe bs.ID (AddBlock rebuilds its walk deterministically). The
// restart-phase epoch is not part of it: see PinEpoch.
func (p *Prober) Restore(bs BlockState) error {
	st := p.st
	if st == nil || st.id != bs.ID {
		return fmt.Errorf("trinocular: restore: block %s not tracked", bs.ID)
	}
	if bs.Pos < 0 || bs.Pos >= len(st.walk) {
		return fmt.Errorf("trinocular: restore: block %s walk position %d out of range", bs.ID, bs.Pos)
	}
	st.belief = bs.Belief
	st.up = bs.Up
	st.round = bs.Round
	st.pos = bs.Pos
	st.seq = bs.Seq
	st.downStreak = bs.DownStreak
	return nil
}
