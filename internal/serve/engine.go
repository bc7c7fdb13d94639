// Package serve is the overload-resilient live query layer over the
// monitor's per-block state: availability, diurnal class, phase →
// time-of-sleep, and outage flags, queryable while the campaign runs.
//
// The core mechanism is the copy-on-write epoch snapshot. The engine folds
// a shard's committed round (internal/monitor's EpochSink hook) into the
// shard's current column set under the engine mutex: in place, or, when an
// epoch points at that set, into a fresh set of the shard's own. Once every
// shard has committed round r, the engine seals an immutable Epoch that
// points at every shard's current set (no column is copied, and a sealed
// set is never written again) and swaps it in with one atomic pointer
// store. Readers
// load the pointer and query the frozen epoch — they never take a lock the
// probe path can contend on, and a reader holding an old epoch keeps a
// consistent view for as long as it wants.
//
// Liveness under partial monitor state is explicit rather than accidental:
// while a shard is crash-looping, mid-recovery, or quarantined, the engine
// keeps serving the last sealed epoch and reports itself degraded; the HTTP
// layer (http.go) turns that into staleness headers instead of blocking or
// guessing.
//
// The engine classifies nothing. A block's class and phase are what the
// monitor publishes: core.ClassifySeries, the study's detector, on the
// block's committed series at the last UTC day end (internal/monitor's
// publish.go). The phase is anchored at midnight UTC, as the study's is.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
	"sleepnet/internal/par"
)

// colSet is one shard's published columns at one round count: avail,
// long, down, failed, class and phase, 30 B a block, beside the ids fixed
// by the shard's last resync (shared by every set of that resync, never
// written after it). A publish writes the shard's current set in place
// until an epoch points at it (sealed); from then on it is never written
// again. Every field is guarded by the engine mutex until the set is sealed.
type colSet struct {
	rounds int // committed rounds the columns reflect
	ids    []netsim.BlockID
	avail  []float64
	long   []float64
	down   []bool
	failed []int32
	class  []monitor.Class
	phase  []float64 // 0 outside the diurnal classes
	sealed bool      // an epoch points at the set
}

func newColSet(ids []netsim.BlockID) *colSet {
	n := len(ids)
	return &colSet{
		ids:    ids,
		avail:  make([]float64, n),
		long:   make([]float64, n),
		down:   make([]bool, n),
		failed: make([]int32, n),
		class:  make([]monitor.Class, n),
		phase:  make([]float64, n),
	}
}

// shardState is the writer side of one monitor shard, guarded by the
// engine mutex.
type shardState struct {
	cur         *colSet // nil until the first resync
	quarantined bool
}

// foldRound applies a round to blocks [lo, hi) of next's columns, carrying
// down and failed forward from cur; next may be cur. Blocks are
// independent, so any split into ranges gives the same bits.
//
//lint:hotpath: per block per round on the publish path; a copy
func foldRound(next, cur *colSet, deltas []monitor.RoundPub, lo, hi int) {
	for i := lo; i < hi; i++ {
		d := &deltas[i]
		next.avail[i] = d.Avail
		next.long[i] = d.Long
		next.class[i], next.phase[i] = d.Class, d.Phase
		down := cur.down[i]
		switch d.Event {
		case monitor.PubEventDown:
			down = true
		case monitor.PubEventUp:
			down = false
		}
		next.down[i] = down
		failed := cur.failed[i]
		if d.Failed {
			failed++
		}
		next.failed[i] = failed
	}
}

// foldChunk is how many blocks one fold task covers. A shard of at most
// foldChunk blocks folds inline on its publishing goroutine; a larger one is
// dealt in chunks of this size across GOMAXPROCS goroutines (par.For).
const foldChunk = 4096

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
	// MinClassifyRounds is ignored: the class comes from the monitor (see
	// the package doc). It stays only because the repository benchmark
	// sets it.
	MinClassifyRounds int
}

// Engine accumulates published monitor state and seals copy-on-write
// epochs. It implements monitor.EpochSink; readers use Epoch/Status, which
// never block on the writer path.
type Engine struct {
	cfg   EngineConfig
	met   *engineMetrics
	chunk int // blocks a fold task covers: foldChunk; tests lower it

	mu          sync.Mutex // writer state below; readers never take it
	info        monitor.RunInfo
	shards      []*shardState
	sealedRound int

	epoch       atomic.Pointer[Epoch]
	maxRounds   atomic.Int64
	totalRounds atomic.Int64
	degraded    atomic.Bool
}

// NewEngine creates an engine; attach it via monitor.Config.Sink.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{cfg: cfg, met: newEngineMetrics(cfg.Metrics), chunk: foldChunk, sealedRound: -1}
}

// BeginRun implements monitor.EpochSink: it records the campaign shape and
// resets per-shard sync state. The last sealed epoch (from a previous run
// over the same WAL) keeps serving until the new run seals a fresh one —
// that is the mid-recovery degraded mode.
func (e *Engine) BeginRun(info monitor.RunInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.info = info
	e.shards = make([]*shardState, info.Shards)
	for i := range e.shards {
		e.shards[i] = &shardState{}
	}
	e.sealedRound = -1
	e.totalRounds.Store(int64(info.Rounds))
}

// ResyncShard implements monitor.EpochSink: it replaces the shard's state
// with its committed state. Cold path (attempt starts and recoveries only).
func (e *Engine) ResyncShard(shard, nextRound int, blocks []monitor.PubBlock) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if shard < 0 || shard >= len(e.shards) {
		e.met.publishIgnored.Inc()
		return
	}
	set := newColSet(make([]netsim.BlockID, len(blocks)))
	set.rounds = nextRound
	for i := range blocks {
		b := &blocks[i]
		set.ids[i] = b.ID
		set.avail[i] = b.Short
		set.long[i] = b.Long
		set.down[i] = b.Down
		set.failed[i] = int32(b.Failed)
		set.class[i], set.phase[i] = b.Class, b.Phase
	}
	st := e.shards[shard]
	st.cur, st.quarantined = set, false
	e.met.resyncs.Inc()
	e.noteRounds(set.rounds)
	e.sealLocked()
}

// PublishRound implements monitor.EpochSink: it folds one committed round
// into the shard's current column set under the engine mutex, and a shard
// larger than foldChunk folds across cores. The fold writes the set in
// place unless an epoch points at it; then it writes a fresh set of the
// shard's own (copy on write). Besides the Epoch a seal allocates, that set
// is all a publish allocates.
func (e *Engine) PublishRound(shard, round int, deltas []monitor.RoundPub) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if shard < 0 || shard >= len(e.shards) {
		e.met.publishIgnored.Inc()
		return
	}
	st := e.shards[shard]
	cur := st.cur
	if cur == nil || len(deltas) != len(cur.ids) || round != cur.rounds {
		// A replayed round (engine already covered it via resync) or a gap
		// (impossible through the shard contract, but never corrupt state
		// over it): drop the publication, the next resync reconciles.
		e.met.publishIgnored.Inc()
		return
	}
	next := cur
	if cur.sealed {
		next = newColSet(cur.ids)
	}
	if n := len(deltas); n <= e.chunk {
		// Not par.For's own inline path: the closure it is handed would be
		// allocated on every publish.
		foldRound(next, cur, deltas, 0, n)
	} else {
		par.For(n, e.chunk, 0, func(lo, hi int) { foldRound(next, cur, deltas, lo, hi) })
	}
	next.rounds = round + 1
	st.cur = next
	e.noteRounds(next.rounds)
	e.sealLocked()
}

// ShardDown implements monitor.EpochSink: the shard quarantined and will
// publish nothing more this run. The engine keeps serving the last epoch
// and reports itself degraded.
func (e *Engine) ShardDown(shard int) {
	e.met.shardsDown.Inc()
	e.degraded.Store(true)
	e.mu.Lock()
	if shard >= 0 && shard < len(e.shards) {
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
// past the current one. The epoch points at each shard's current column
// set, which is never written again: O(shards) under the writer mutex, no
// column copied, and epochs are stored in seal order.
func (e *Engine) sealLocked() {
	floor, blocks, segs := -1, 0, 0
	for _, st := range e.shards {
		if st.cur == nil {
			return // not all shards reporting yet: no epoch to seal
		}
		if n := len(st.cur.ids); n > 0 {
			blocks += n
			segs++
		}
		if st.quarantined {
			continue // frozen at its last committed round; floor ignores it
		}
		if floor < 0 || st.cur.rounds < floor {
			floor = st.cur.rounds
		}
	}
	if floor <= e.sealedRound || floor <= 0 {
		return
	}
	e.sealedRound = floor

	ep := &Epoch{
		Rounds:      floor,
		MaxRounds:   int(e.maxRounds.Load()),
		TotalRounds: e.info.Rounds,
		Time:        e.info.Start.Add(time.Duration(floor-1) * e.info.Period),
		Start:       e.info.Start,
		segs:        make([]*colSet, 0, segs),
		blocks:      blocks,
	}
	// Shards hold contiguous slices of the global sorted block order, so
	// their sets in shard order are the globally sorted epoch.
	for _, st := range e.shards {
		if len(st.cur.ids) > 0 {
			st.cur.sealed = true
			ep.segs = append(ep.segs, st.cur)
		}
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
