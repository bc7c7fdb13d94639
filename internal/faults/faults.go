// Package faults is the fault-injection layer for the measurement path: a
// deterministic, seeded perturbation of probe delivery that models the
// hostile reality the paper's pipeline survived — lost probes, ICMP rate
// limiting at target networks, corrupted replies, prober clock skew, and
// vantage-point blackouts (§2.2 reports ~5% of rounds missing or duplicated
// even after all of this). The injector implements netsim.Tap and attaches
// to a Network with SetTap; the zero value (and a zero Config) is a no-op,
// so fault-free runs are byte-identical to runs without the layer.
//
// All draws come from the canonical PRF keyed by (seed, destination, time),
// so a faulty run is exactly reproducible from its seed and a retried probe
// at a later virtual time redraws its fate.
package faults

import (
	"fmt"
	"sync"
	"time"

	"sleepnet/internal/netsim"
	"sleepnet/internal/prf"
	"sleepnet/internal/timeseries"
)

// Config describes the fault model. The zero value injects nothing.
type Config struct {
	// Seed decorrelates fault draws from the simulation's own randomness.
	Seed uint64
	// LossRate is the probability a probe is silently lost in transit, on
	// top of any per-block path loss the simulated network already models.
	LossRate float64
	// CorruptRate is the probability a delivered reply is corrupted
	// (bit-flip, truncation, or payload bloat — each exercising a distinct
	// icmp parse error path).
	CorruptRate float64
	// RateLimitPerRound, when positive, lets only that many probes per
	// target block through in each rateLimitWindow; the rest are eaten by
	// an intermediate device that answers with an ICMP administratively-
	// prohibited unreachable — the bursty rate limiting real gateways apply.
	RateLimitPerRound int
	// ClockSkew is a constant offset added to every delivery timestamp —
	// the prober's clock disagreeing with the world's.
	ClockSkew time.Duration
	// ClockDriftPerDay adds a linearly growing offset anchored at the
	// injector's epoch.
	ClockDriftPerDay time.Duration
	// BlackoutEvery/BlackoutFor schedule periodic vantage-point blackouts
	// anchored at the injector's epoch: during the first BlackoutFor of
	// every BlackoutEvery, all probes fail locally with a send error.
	BlackoutEvery time.Duration
	BlackoutFor   time.Duration
}

// rateLimitWindow is the rate-limit accounting window: the paper's
// 11-minute round.
const rateLimitWindow = timeseries.DefaultRound

// Active reports whether the configuration injects anything at all.
func (c Config) Active() bool {
	return c.LossRate > 0 || c.CorruptRate > 0 || c.RateLimitPerRound > 0 ||
		c.ClockSkew != 0 || c.ClockDriftPerDay != 0 ||
		(c.BlackoutEvery > 0 && c.BlackoutFor > 0)
}

// Validate refuses a configuration that Active would misread: a
// probability outside [0, 1], which injects everything or nothing, a
// negative rate limit, which injects nothing, and a blackout schedule with
// only one of its two durations, which injects nothing. The error names the
// field.
func (c Config) Validate() error {
	switch {
	case c.RateLimitPerRound < 0:
		return fmt.Errorf("faults: RateLimitPerRound %d is negative", c.RateLimitPerRound)
	case !(c.LossRate >= 0 && c.LossRate <= 1): // NaN too
		return fmt.Errorf("faults: LossRate %v is not a probability in [0, 1]", c.LossRate)
	case !(c.CorruptRate >= 0 && c.CorruptRate <= 1):
		return fmt.Errorf("faults: CorruptRate %v is not a probability in [0, 1]", c.CorruptRate)
	case c.BlackoutEvery < 0:
		return fmt.Errorf("faults: BlackoutEvery %v is negative", c.BlackoutEvery)
	case c.BlackoutFor < 0:
		return fmt.Errorf("faults: BlackoutFor %v is negative", c.BlackoutFor)
	case c.BlackoutEvery > 0 && c.BlackoutFor == 0:
		return fmt.Errorf("faults: BlackoutEvery %v is set but BlackoutFor is not: a blackout needs both", c.BlackoutEvery)
	case c.BlackoutFor > 0 && c.BlackoutEvery == 0:
		return fmt.Errorf("faults: BlackoutFor %v is set but BlackoutEvery is not: a blackout needs both", c.BlackoutFor)
	}
	return nil
}

// Stats counts injected faults, globally or for one block.
type Stats struct {
	Probes      int64 // outbound probes seen by the injector
	Dropped     int64 // silently lost
	RateLimited int64 // eaten and answered admin-prohibited
	SendErrors  int64 // failed at the vantage point (blackout)
	Corrupted   int64 // replies mangled on the way back
}

// String summarizes the counters for logs.
func (s Stats) String() string {
	return fmt.Sprintf("probes=%d dropped=%d ratelimited=%d senderrors=%d corrupted=%d",
		s.Probes, s.Dropped, s.RateLimited, s.SendErrors, s.Corrupted)
}

func (s *Stats) add(o Stats) {
	s.Probes += o.Probes
	s.Dropped += o.Dropped
	s.RateLimited += o.RateLimited
	s.SendErrors += o.SendErrors
	s.Corrupted += o.Corrupted
}

// blockState is per-block injector memory: fault counters plus the current
// rate-limit window.
type blockState struct {
	stats    Stats
	rlWindow int64
	rlCount  int
}

// Injector implements netsim.Tap. The zero value is a usable no-op; create
// configured injectors with New. Safe for concurrent use.
type Injector struct {
	cfg   Config
	epoch time.Time // anchors drift and periodic blackouts; zero disables both

	mu     sync.Mutex
	blocks map[netsim.BlockID]*blockState
}

// New creates an injector for the given fault model. epoch anchors clock
// drift and periodic blackouts — campaigns pass their start time; a zero
// epoch disables both.
func New(cfg Config, epoch time.Time) *Injector {
	return &Injector{cfg: cfg, epoch: epoch}
}

// Attach installs an injector for cfg on net for a campaign that begins at
// start, its epoch, and returns the injector with the function that removes
// it again. An inactive cfg attaches nothing: the injector is nil and
// detach does nothing. Like SetTap, neither call may race with probing.
func Attach(net *netsim.Network, cfg Config, start time.Time) (inj *Injector, detach func()) {
	if !cfg.Active() {
		return nil, func() {}
	}
	inj = New(cfg, start)
	net.SetTap(inj)
	return inj, func() { net.SetTap(nil) }
}

func (in *Injector) block(id netsim.BlockID) *blockState {
	if in.blocks == nil {
		in.blocks = make(map[netsim.BlockID]*blockState)
	}
	st := in.blocks[id]
	if st == nil {
		st = &blockState{}
		in.blocks[id] = st
	}
	return st
}

// skewed returns now as the fault model's clock sees it.
func (in *Injector) skewed(now time.Time) time.Time {
	adj := now.Add(in.cfg.ClockSkew)
	if in.cfg.ClockDriftPerDay != 0 && !in.epoch.IsZero() {
		days := now.Sub(in.epoch).Hours() / 24
		adj = adj.Add(time.Duration(days * float64(in.cfg.ClockDriftPerDay)))
	}
	return adj
}

// blackedOut reports whether the vantage point is down at now.
func (in *Injector) blackedOut(now time.Time) bool {
	if in.cfg.BlackoutEvery <= 0 || in.cfg.BlackoutFor <= 0 || in.epoch.IsZero() {
		return false
	}
	since := now.Sub(in.epoch)
	return since >= 0 && since%in.cfg.BlackoutEvery < in.cfg.BlackoutFor
}

// OutboundBatch implements netsim.Tap: one lock acquisition decides the
// fate of a whole batch of probes and skews their delivery timestamps.
// Deciding every outbound fate before any inbound processing is safe here
// because every draw is PRF-pure per (destination, timestamp) and the only
// stateful decision — the per-block rate-limit window — sees each block's
// probes in slice order; Inbound's corruption draw is likewise pure.
func (in *Injector) OutboundBatch(dsts []netsim.Addr, now time.Time, times []time.Time, verdicts []netsim.TapVerdict) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, dst := range dsts {
		times[i], verdicts[i] = in.outboundLocked(dst, now)
	}
}

// outboundLocked decides one probe; in.mu must be held.
func (in *Injector) outboundLocked(dst netsim.Addr, now time.Time) (time.Time, netsim.TapVerdict) {
	st := in.block(dst.Block)
	st.stats.Probes++

	if in.blackedOut(now) {
		st.stats.SendErrors++
		return now, netsim.TapSendError
	}
	if in.cfg.LossRate > 0 &&
		prf.Float(in.cfg.Seed^0x10c55, uint64(dst.Block), uint64(dst.Host), uint64(now.UnixNano())) < in.cfg.LossRate {
		st.stats.Dropped++
		return now, netsim.TapDrop
	}
	if in.cfg.RateLimitPerRound > 0 {
		w := now.UnixNano() / int64(rateLimitWindow)
		if w != st.rlWindow {
			st.rlWindow = w
			st.rlCount = 0
		}
		st.rlCount++
		if st.rlCount > in.cfg.RateLimitPerRound {
			st.stats.RateLimited++
			return now, netsim.TapAdminProhibited
		}
	}
	return in.skewed(now), netsim.TapDeliver
}

// Inbound implements netsim.Tap: it may corrupt a reply. Three corruption
// modes exercise the parser's distinct error paths: truncation
// (ErrTruncated for short messages, ErrChecksum otherwise), a single bit
// flip (ErrChecksum), and payload bloat past the size bound (ErrPayloadSize).
//
// The reply slice may be a prober's reusable netsim.BatchBuffer storage, so
// the Tap contract applies: it is never retained past the call and every
// corruption mode returns a fresh copy (copy-on-corrupt) instead of
// mutating the caller's bytes in place.
func (in *Injector) Inbound(dst netsim.Addr, reply []byte, now time.Time) []byte {
	if in.cfg.CorruptRate <= 0 || len(reply) == 0 {
		return reply
	}
	key := []uint64{uint64(dst.Block), uint64(dst.Host), uint64(now.UnixNano())}
	if prf.Float(in.cfg.Seed^0xc0bb, key...) >= in.cfg.CorruptRate {
		return reply
	}
	in.mu.Lock()
	in.block(dst.Block).stats.Corrupted++
	in.mu.Unlock()

	h := prf.Hash(in.cfg.Seed^0x5a17, key...)
	switch h % 3 {
	case 0: // truncate
		n := int(h>>8) % len(reply)
		return append([]byte(nil), reply[:n]...)
	case 1: // flip one bit
		out := append([]byte(nil), reply...)
		i := int(h>>8) % len(out)
		out[i] ^= 1 << ((h >> 32) % 8)
		return out
	default: // bloat past the parser's payload bound
		out := append([]byte(nil), reply...)
		return append(out, make([]byte, 1500)...)
	}
}

// BlockStats returns the fault counters accumulated for one block.
func (in *Injector) BlockStats(id netsim.BlockID) Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.blocks[id]; st != nil {
		return st.stats
	}
	return Stats{}
}

// Totals returns the fault counters summed over all blocks.
func (in *Injector) Totals() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	var total Stats
	for _, st := range in.blocks {
		total.add(st.stats)
	}
	return total
}

var _ netsim.Tap = (*Injector)(nil)
