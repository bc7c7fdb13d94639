// Package serve is the overload-resilient live query layer over the
// monitor's per-block state: availability, streaming diurnal class, phase →
// time-of-sleep, and outage flags, queryable while the campaign runs.
//
// The core mechanism is the copy-on-write epoch snapshot. Shards publish
// committed rounds into writer-owned columnar buffers (internal/monitor's
// EpochSink hook); once every shard has committed round r, the engine copies
// the finished columns — classification included — into an immutable Epoch
// and swaps it in with one atomic pointer store. Readers load the pointer
// and query the frozen epoch — they never take a lock the probe path can
// contend on, and a reader holding an old epoch keeps a consistent view for
// as long as it wants.
//
// Liveness under partial monitor state is explicit rather than accidental:
// while a shard is crash-looping, mid-recovery, or quarantined, the engine
// keeps serving the last sealed epoch and reports itself degraded; the HTTP
// layer (http.go) turns that into staleness headers instead of blocking or
// guessing.
//
// Diurnal state is a *streaming* approximation: an incremental DFT at the
// 1 cycle/day bin and its first harmonic, updated O(1) per block per round
// from the published Âs value. The batch FFT over the completed study stays
// the golden oracle (internal/core.DetectDiurnal); the streaming class
// exists so "is this block asleep right now" is answerable mid-campaign.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
)

// DiurnalClass is the streaming classification of one block.
type DiurnalClass uint8

const (
	// ClassUnknown: not enough committed rounds to attempt classification.
	ClassUnknown DiurnalClass = iota
	// ClassNonDiurnal: no dominant daily periodicity in the stream so far.
	ClassNonDiurnal
	// ClassRelaxed: daily periodicity present (fundamental plus first
	// harmonic carry a meaningful share of the variance).
	ClassRelaxed
	// ClassStrict: the 1 cycle/day component dominates: it carries at least
	// half the variance and is at least twice the first harmonic.
	ClassStrict
)

// String renders the class for reports and JSON.
func (c DiurnalClass) String() string {
	switch c {
	case ClassStrict:
		return "strict"
	case ClassRelaxed:
		return "relaxed"
	case ClassNonDiurnal:
		return "non-diurnal"
	default:
		return "unknown"
	}
}

// Streaming classification thresholds. The batch FFT compares against the
// whole spectrum; the stream only tracks the diurnal bin and its first
// harmonic, so the rules are variance-share tests instead of peak ranking.
const (
	// strictShare: fraction of series variance the fundamental must carry.
	strictShare = 0.5
	// relaxedShare: fraction fundamental+harmonic must carry together.
	relaxedShare = 0.3
	// flatVariance: below this the series is flat and trivially non-diurnal.
	flatVariance = 1e-9
)

// shardState is the writer-side mirror of one monitor shard, owned by the
// engine mutex. Every block of a shard has seen the same rounds, so the
// basis sums are held once; class and phase are kept current by whoever
// moves acc (PublishRound, ResyncShard), so a seal only copies columns.
type shardState struct {
	synced      bool
	quarantined bool
	sums        BasisSums // sums.N is the committed rounds published so far
	ids         []netsim.BlockID
	avail       []float64
	long        []float64
	down        []bool
	failed      []int32
	acc         []StreamAcc
	class       []DiurnalClass
	phase       []float64 // 0 outside the diurnal classes
}

// rounds reports how many committed rounds the shard has published.
func (st *shardState) rounds() int { return int(st.sums.N) }

// classify refreshes block i's class and phase columns from its accumulator.
//
//lint:hotpath: per block per round on the publish path; pure arithmetic
func (st *shardState) classify(i, minRounds int) {
	class, phase := st.acc[i].Classify(&st.sums, minRounds)
	if class != ClassStrict && class != ClassRelaxed {
		phase = 0
	}
	st.class[i], st.phase[i] = class, phase
}

// engineMetrics caches the engine's instruments (all no-ops without a
// registry).
type engineMetrics struct {
	epochs         *metrics.Counter
	resyncs        *metrics.Counter
	publishIgnored *metrics.Counter
	shardsDown     *metrics.Counter
}

func newEngineMetrics(r *metrics.Registry) *engineMetrics {
	if r == nil {
		return &engineMetrics{}
	}
	return &engineMetrics{
		epochs:         r.Counter("serve.epochs_sealed"),
		resyncs:        r.Counter("serve.resyncs"),
		publishIgnored: r.Counter("serve.publish_ignored"),
		shardsDown:     r.Counter("serve.shards_down"),
	}
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Metrics receives engine counters (optional).
	Metrics *metrics.Registry
	// MinClassifyRounds is how many committed rounds a block needs before
	// the streaming classifier speaks; fewer reports ClassUnknown. Default:
	// one virtual day of rounds (derived from the campaign period).
	MinClassifyRounds int
}

// Engine accumulates published monitor state and seals copy-on-write
// epochs. It implements monitor.EpochSink; readers use Epoch/Status, which
// never block on the writer path.
type Engine struct {
	cfg EngineConfig
	met *engineMetrics

	mu          sync.Mutex // writer state below; readers never take it
	info        monitor.RunInfo
	began       bool
	shards      []*shardState
	basis       Basis
	minClassify int
	sealedRound int

	epoch       atomic.Pointer[Epoch]
	maxRounds   atomic.Int64
	totalRounds atomic.Int64
	degraded    atomic.Bool
}

// NewEngine creates an engine; attach it via monitor.Config.Sink.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{cfg: cfg, met: newEngineMetrics(cfg.Metrics), sealedRound: -1}
}

// BeginRun implements monitor.EpochSink: it records the campaign shape and
// resets per-shard sync state. The last sealed epoch (from a previous run
// over the same WAL) keeps serving until the new run seals a fresh one —
// that is the mid-recovery degraded mode.
func (e *Engine) BeginRun(info monitor.RunInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.info = info
	e.began = true
	e.shards = make([]*shardState, info.Shards)
	e.basis = NewBasis(info.Period)
	e.minClassify = e.cfg.MinClassifyRounds
	if e.minClassify <= 0 {
		e.minClassify = e.basis.DefaultMinClassify() // one virtual day
	}
	e.sealedRound = -1
	e.totalRounds.Store(int64(info.Rounds))
}

// ResyncShard implements monitor.EpochSink: it replaces the shard's mirror
// with state rebuilt from the committed series. Cold path (attempt starts
// and recoveries only). A block whose series is not nextRound long breaks
// the contract (a shard has one round count); such a resync is dropped and
// the mirror stays as it was.
func (e *Engine) ResyncShard(shard, nextRound int, blocks []monitor.PubBlock) {
	e.mu.Lock()
	if !e.began || shard < 0 || shard >= len(e.shards) || !seriesLen(blocks, nextRound) {
		e.met.publishIgnored.Inc()
		e.mu.Unlock()
		return
	}
	st := &shardState{
		synced: true,
		ids:    make([]netsim.BlockID, len(blocks)),
		avail:  make([]float64, len(blocks)),
		long:   make([]float64, len(blocks)),
		down:   make([]bool, len(blocks)),
		failed: make([]int32, len(blocks)),
		acc:    make([]StreamAcc, len(blocks)),
		class:  make([]DiurnalClass, len(blocks)),
		phase:  make([]float64, len(blocks)),
	}
	for i := range blocks {
		b := &blocks[i]
		st.ids[i] = b.ID
		if nextRound > 0 {
			st.avail[i] = b.Short[nextRound-1]
		}
		st.long[i] = b.Long
		st.down[i] = b.Down
		st.failed[i] = int32(b.Failed)
	}
	// Rebuild the spectral accumulators round-major so the float op order
	// matches incremental publication exactly.
	for r := 0; r < nextRound; r++ {
		c1, s1, c2, s2 := e.basis.Waves(r)
		for i := range blocks {
			st.acc[i].Add(blocks[i].Short[r], float64(r), c1, s1, c2, s2)
		}
		st.sums.Add(c1, s1, c2, s2)
	}
	for i := range blocks {
		st.classify(i, e.minClassify)
	}
	e.shards[shard] = st
	e.met.resyncs.Inc()
	e.noteRounds(nextRound)
	e.sealLocked()
	e.mu.Unlock()
}

// seriesLen reports whether every block carries exactly rounds values.
func seriesLen(blocks []monitor.PubBlock, rounds int) bool {
	for i := range blocks {
		if len(blocks[i].Short) != rounds {
			return false
		}
	}
	return true
}

// PublishRound implements monitor.EpochSink: it applies one committed
// round's deltas and reclassifies the shard's blocks while their moments
// are hot. Hot path — O(shard blocks) arithmetic under the writer mutex, no
// allocation unless the round seals an epoch.
func (e *Engine) PublishRound(shard, round int, deltas []monitor.RoundPub) {
	e.mu.Lock()
	if !e.began || shard < 0 || shard >= len(e.shards) {
		e.met.publishIgnored.Inc()
		e.mu.Unlock()
		return
	}
	st := e.shards[shard]
	if st == nil || !st.synced || len(deltas) != len(st.ids) || round != st.rounds() {
		// A replayed round (engine already covered it via resync) or a gap
		// (impossible through the shard contract, but never corrupt state
		// over it): drop the publication, the next resync reconciles.
		e.met.publishIgnored.Inc()
		e.mu.Unlock()
		return
	}
	c1, s1, c2, s2 := e.basis.Waves(round)
	r := float64(round)
	st.sums.Add(c1, s1, c2, s2)
	for i := range deltas {
		d := &deltas[i]
		st.avail[i] = d.Avail
		st.long[i] = d.Long
		st.acc[i].Add(d.Avail, r, c1, s1, c2, s2)
		st.classify(i, e.minClassify)
		switch d.Event {
		case monitor.PubEventDown:
			st.down[i] = true
		case monitor.PubEventUp:
			st.down[i] = false
		}
		if d.Failed {
			st.failed[i]++
		}
	}
	e.noteRounds(round + 1)
	e.sealLocked()
	e.mu.Unlock()
}

// ShardDown implements monitor.EpochSink: the shard quarantined and will
// publish nothing more this run. The engine keeps serving the last epoch
// and reports itself degraded.
func (e *Engine) ShardDown(shard int) {
	e.met.shardsDown.Inc()
	e.degraded.Store(true)
	e.mu.Lock()
	if shard >= 0 && shard < len(e.shards) && e.shards[shard] != nil {
		e.shards[shard].quarantined = true
	}
	// The quarantined shard no longer holds the floor down: shards that
	// already committed past it may now be sealable.
	e.sealLocked()
	e.mu.Unlock()
}

// noteRounds advances the high-water mark of committed rounds (locked).
func (e *Engine) noteRounds(rounds int) {
	if int64(rounds) > e.maxRounds.Load() {
		e.maxRounds.Store(int64(rounds))
	}
}

// sealLocked seals and publishes a new epoch when every shard has committed
// past the current one. It is a column copy under the writer mutex (so
// publishers see a consistent cut, and epochs are stored in seal order):
// each shard keeps its own class and phase columns current as it publishes.
func (e *Engine) sealLocked() {
	floor := -1
	for _, st := range e.shards {
		if st == nil || !st.synced {
			return // not all shards reporting yet: no epoch to seal
		}
		if st.quarantined {
			continue // frozen at its last committed round; floor ignores it
		}
		if floor < 0 || st.rounds() < floor {
			floor = st.rounds()
		}
	}
	if floor <= e.sealedRound || floor <= 0 {
		return
	}
	e.sealedRound = floor

	total := 0
	for _, st := range e.shards {
		total += len(st.ids)
	}
	ep := &Epoch{
		Rounds:      floor,
		MaxRounds:   int(e.maxRounds.Load()),
		TotalRounds: e.info.Rounds,
		Time:        e.info.Start.Add(time.Duration(floor-1) * e.info.Period),
		Start:       e.info.Start,
		ids:         make([]netsim.BlockID, 0, total),
		avail:       make([]float64, 0, total),
		long:        make([]float64, 0, total),
		down:        make([]bool, 0, total),
		failed:      make([]int32, 0, total),
		class:       make([]DiurnalClass, 0, total),
		phase:       make([]float64, 0, total),
		startHour:   startOfDayHour(e.info.Start),
	}
	// Shards hold contiguous slices of the global sorted block order, so
	// concatenating in shard order yields a globally sorted epoch.
	for _, st := range e.shards {
		ep.ids = append(ep.ids, st.ids...)
		ep.avail = append(ep.avail, st.avail...)
		ep.long = append(ep.long, st.long...)
		ep.down = append(ep.down, st.down...)
		ep.failed = append(ep.failed, st.failed...)
		ep.class = append(ep.class, st.class...)
		ep.phase = append(ep.phase, st.phase...)
	}
	e.met.epochs.Inc()
	// A run resumed over an old WAL starts below the epoch the previous run
	// left serving; never let an older epoch replace a newer one.
	if cur := e.epoch.Load(); cur == nil || cur.Rounds < ep.Rounds {
		e.epoch.Store(ep)
	}
}

// Epoch returns the latest sealed epoch, or nil before the first seal.
// Lock-free: one atomic pointer load.
func (e *Engine) Epoch() *Epoch { return e.epoch.Load() }

// Status is the engine's serving posture, computed without touching the
// writer mutex.
type Status struct {
	// Ready: at least one epoch is sealed and queryable.
	Ready bool `json:"ready"`
	// Epoch is the sealed epoch's round floor (0 when not ready).
	Epoch int `json:"epoch"`
	// MaxRounds is the most advanced shard's committed round count.
	MaxRounds int `json:"max_rounds"`
	// TotalRounds is the campaign length.
	TotalRounds int `json:"total_rounds"`
	// Degraded: a shard quarantined (or the monitor died); the epoch may be
	// permanently stale.
	Degraded bool `json:"degraded"`
	// StaleRounds is how many committed rounds the epoch lags the most
	// advanced shard.
	StaleRounds int `json:"stale_rounds"`
}

// Status reports the engine's current posture (lock-free).
func (e *Engine) Status() Status {
	s := Status{
		MaxRounds:   int(e.maxRounds.Load()),
		TotalRounds: int(e.totalRounds.Load()),
		Degraded:    e.degraded.Load(),
	}
	if ep := e.epoch.Load(); ep != nil {
		s.Ready = true
		s.Epoch = ep.Rounds
		s.StaleRounds = s.MaxRounds - ep.Rounds
	}
	return s
}

// SetDegraded forces the degraded flag — the CLI uses it when the monitor
// exits fatally while the server keeps answering from the last epoch.
func (e *Engine) SetDegraded() { e.degraded.Store(true) }
