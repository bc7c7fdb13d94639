// Package monitor runs the paper's measurement as a crash-tolerant
// continuous service: the sorted block set is partitioned across worker
// shards, each shard probes its blocks round after round with one reused
// BatchContext (steady-state memory O(shards), not O(blocks)), commits
// every round to a per-shard write-ahead log, and snapshots periodically. A
// supervision tree restarts crashed shards with exponential backoff —
// rebuilding state from the WAL, never from the wreckage — and escalates:
// crash loop → quarantine, quarantine quorum or hard wedge → monitor-fatal.
// A watchdog on an injectable tick channel detects wedged rounds; SIGINT/
// SIGTERM-style context cancellation drains gracefully (finish the
// in-flight round, snapshot, seal).
//
// The determinism contract carries over from the rest of the pipeline:
// probing is a pure function of (seed, block, virtual time), so a run with
// any interleaving of crashes and recoveries commits exactly the state an
// uninterrupted run commits, and the exported Study is byte-identical —
// the property the chaos harness in monitor_test.go pins.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

// Terminal monitor errors.
var (
	// ErrHalted reports a simulated hard kill (Config.HaltAfterRound): the
	// monitor stopped without draining, snapshotting, or sealing — the WAL
	// tail is whatever was committed. Restarting a monitor over the same
	// WALDir resumes from exactly that state.
	ErrHalted = errors.New("monitor: halted")
	// ErrWatchdog reports a shard wedged beyond the watchdog's abort.
	ErrWatchdog = errors.New("monitor: watchdog declared shard wedged")
	// ErrQuarantine reports that too many shards crash-looped into
	// quarantine for the run to be meaningful.
	ErrQuarantine = errors.New("monitor: quarantine quorum exceeded")
)

// Config describes a monitoring campaign. Net, Start, and Rounds are
// required; everything else has defaults.
type Config struct {
	// Net is the network to probe (shared by all shards; netsim.Network is
	// safe for concurrent probing).
	Net *netsim.Network
	// Blocks selects the monitored blocks; nil monitors every block in Net.
	// Blocks too sparse to probe are silently excluded, as in the paper.
	Blocks []netsim.BlockID
	// Start is the campaign's virtual epoch; round r probes at
	// Start + r*timeseries.DefaultRound, the paper's 660 s.
	Start time.Time
	// Rounds is the campaign length (required, positive).
	Rounds int
	// Shards is the number of worker shards (default 4, clamped to the
	// block count). Sharding does not affect results — only wall-clock and
	// fault isolation.
	Shards int
	// Prober carries the Trinocular policy for every shard.
	Prober trinocular.Config
	Seed   uint64

	// WALDir enables durability: per-shard segmented WALs and snapshots
	// live under it. Empty runs the monitor in-memory only.
	WALDir string
	// SyncWAL fsyncs every record (the power-cut-safe mode). Off, records
	// still reach the kernel per round and every seal/snapshot syncs.
	SyncWAL bool
	// SegmentBytes rotates WAL segments at this size (default 1 MiB).
	SegmentBytes int64
	// SnapshotEvery writes a shard snapshot every that many rounds
	// (default 16; 0 disables periodic snapshots, leaving only the final
	// and drain-time ones).
	SnapshotEvery int

	// MaxRestarts is how many crashes a shard may accumulate before it is
	// quarantined (default 5).
	MaxRestarts int
	// BackoffBase/BackoffMax shape the exponential restart backoff
	// (defaults 10ms, 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// WatchdogTick drives the wedge detector; nil disables it. Tests inject
	// a channel they fire by hand; the CLI feeds a time.Ticker. Tick values
	// are ignored — only arrival matters.
	WatchdogTick <-chan time.Time
	// WatchdogStrikes is how many consecutive tick intervals without shard
	// progress trigger an abort; twice that without progress is fatal
	// (default 3).
	WatchdogStrikes int

	// Metrics receives operational counters; it is also handed to the
	// probers when they have none of their own.
	Metrics *metrics.Registry
	// Sink, when non-nil, receives every committed round (and a full resync
	// at each shard rebuild) for live serving — see publish.go. Nil costs
	// one comparison per round.
	Sink EpochSink
	// Chaos injects process-level faults (tests only).
	Chaos *faults.ChaosPlan
	// HaltAfterRound simulates kill -9: once every shard has committed this
	// many rounds the whole monitor stops dead — no drain, no snapshot, no
	// seal (tests only; 0 disables). The all-shards condition makes the
	// halt deterministic relative to chaos schedules: any event keyed to an
	// earlier round is guaranteed to have fired first.
	HaltAfterRound int
}

const (
	// initialA seeds the estimators.
	initialA = 0.5
	// fatalQuarantineFrac escalates to monitor-fatal when more than this
	// fraction of shards is quarantined.
	fatalQuarantineFrac = 0.5
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.SnapshotEvery < 0 {
		c.SnapshotEvery = 0
	} else if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 16
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.WatchdogStrikes <= 0 {
		c.WatchdogStrikes = 3
	}
	if c.Metrics != nil && c.Prober.Metrics == nil {
		c.Prober.Metrics = c.Metrics
	}
	return c
}

// monitorMetrics caches the monitor's instruments; all fields are nil (and
// every method a no-op) without a registry.
type monitorMetrics struct {
	rounds          *metrics.Counter
	restarts        *metrics.Counter
	quarantines     *metrics.Counter
	watchdogStrikes *metrics.Counter
	watchdogAborts  *metrics.Counter
	recoveries      *metrics.Counter
	replayedRounds  *metrics.Counter
	truncatedTails  *metrics.Counter
	snapshots       *metrics.Counter
	walRecords      *metrics.Counter
	walBytes        *metrics.Counter
	walSeals        *metrics.Counter
	segmentsDeleted *metrics.Counter
}

func newMonitorMetrics(r *metrics.Registry) *monitorMetrics {
	if r == nil {
		return &monitorMetrics{}
	}
	return &monitorMetrics{
		rounds:          r.Counter("monitor.rounds_committed"),
		restarts:        r.Counter("monitor.shard_restarts"),
		quarantines:     r.Counter("monitor.shards_quarantined"),
		watchdogStrikes: r.Counter("monitor.watchdog_strikes"),
		watchdogAborts:  r.Counter("monitor.watchdog_aborts"),
		recoveries:      r.Counter("monitor.recoveries"),
		replayedRounds:  r.Counter("monitor.replayed_rounds"),
		truncatedTails:  r.Counter("monitor.truncated_tails"),
		snapshots:       r.Counter("monitor.snapshots"),
		walRecords:      r.Counter("monitor.wal_records"),
		walBytes:        r.Counter("monitor.wal_bytes"),
		walSeals:        r.Counter("monitor.wal_seals"),
		segmentsDeleted: r.Counter("monitor.wal_segments_deleted"),
	}
}

// Monitor is a configured, not-yet-running campaign. Run may be called once.
type Monitor struct {
	cfg    Config
	met    *monitorMetrics
	chaos  *faults.ChaosPlan
	shards []*shard

	halted      atomic.Bool
	cancel      context.CancelFunc
	fatalMu     sync.Mutex
	fatalErr    error
	quarantined int
}

// New validates the configuration, selects and partitions the probe-eligible
// blocks, and prepares (or checks) the WAL directory. It performs no probing.
func New(cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if cfg.Net == nil {
		return nil, fmt.Errorf("monitor: Config.Net is required")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("monitor: Config.Rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.Start.IsZero() {
		return nil, fmt.Errorf("monitor: Config.Start is required (the virtual epoch)")
	}

	ids := cfg.Blocks
	if ids == nil {
		ids = cfg.Net.BlockIDs()
	}
	ids = append([]netsim.BlockID(nil), ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	eligible := ids[:0]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		blk := cfg.Net.Block(id)
		if blk == nil {
			return nil, fmt.Errorf("monitor: block %s not in network", id)
		}
		if blk.NumEverActive() < trinocular.MinEverActive {
			continue // too sparse to probe; excluded by policy
		}
		eligible = append(eligible, id)
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("monitor: no probe-eligible blocks")
	}
	if cfg.Shards > len(eligible) {
		cfg.Shards = len(eligible)
	}

	m := &Monitor{
		cfg:   cfg,
		met:   newMonitorMetrics(cfg.Metrics),
		chaos: cfg.Chaos,
	}
	// Contiguous, balanced partition of the sorted order: deterministic, and
	// shard i's blocks sort entirely before shard i+1's (Study relies on it).
	base, rem := len(eligible)/cfg.Shards, len(eligible)%cfg.Shards
	off := 0
	for i := 0; i < cfg.Shards; i++ {
		n := base
		if i < rem {
			n++
		}
		m.shards = append(m.shards, &shard{idx: i, m: m, blocks: eligible[off : off+n]})
		off += n
	}

	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		meta := metaFor(cfg.Seed, cfg.Start, timeseries.DefaultRound, cfg.Rounds, cfg.Shards, eligible)
		if err := checkOrWriteMeta(cfg.WALDir+"/meta.json", meta); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// NumBlocks reports how many blocks the monitor tracks after eligibility
// filtering.
func (m *Monitor) NumBlocks() int {
	n := 0
	for _, s := range m.shards {
		n += len(s.blocks)
	}
	return n
}

// NumShards reports the effective shard count.
func (m *Monitor) NumShards() int { return len(m.shards) }

// halt flips the monitor into simulated-kill mode and cancels everything.
func (m *Monitor) halt() {
	if m.halted.CompareAndSwap(false, true) {
		m.cancel()
	}
}

// maybeHalt triggers the simulated kill once every shard has committed at
// least HaltAfterRound rounds.
func (m *Monitor) maybeHalt() {
	if m.cfg.HaltAfterRound <= 0 {
		return
	}
	for _, s := range m.shards {
		if int(s.committed.Load()) < m.cfg.HaltAfterRound {
			return
		}
	}
	m.halt()
}

// fail records the first fatal error and cancels everything.
func (m *Monitor) fail(err error) {
	m.fatalMu.Lock()
	if m.fatalErr == nil {
		m.fatalErr = err
	}
	m.fatalMu.Unlock()
	m.cancel()
}

func (m *Monitor) fatal() error {
	m.fatalMu.Lock()
	defer m.fatalMu.Unlock()
	return m.fatalErr
}

// noteQuarantine counts a quarantined shard and escalates past the quorum.
func (m *Monitor) noteQuarantine() {
	m.fatalMu.Lock()
	m.quarantined++
	over := float64(m.quarantined) > fatalQuarantineFrac*float64(len(m.shards))
	m.fatalMu.Unlock()
	if over {
		m.fail(fmt.Errorf("%w: %d of %d shards", ErrQuarantine, m.quarantined, len(m.shards)))
	}
}

// shardOutcome is one supervisor's verdict.
type shardOutcome struct {
	completed   bool
	drained     bool
	halted      bool
	quarantined bool
	restarts    int
	lastErr     error
}

// Result summarizes a Run.
type Result struct {
	// Completed: every shard committed every round. Only then is Study
	// available.
	Completed bool
	// Drained: the run was stopped by context cancellation and every
	// non-finished shard drained cleanly.
	Drained bool
	// Halted: the run was stopped by the simulated hard kill.
	Halted bool
	// Restarts sums shard restarts across the run.
	Restarts int
	// Quarantined lists shards that crash-looped out of the run.
	Quarantined []int
	shards      []*shard
}

// Run executes the campaign until completion, cancellation, halt, or fatal
// error. It may be called once per Monitor; restart tolerance within a run
// is the supervisor's job, and resuming a previous run is done by building
// a new Monitor over the same WALDir.
func (m *Monitor) Run(ctx context.Context) (*Result, error) {
	ictx, cancel := context.WithCancel(ctx)
	m.cancel = cancel
	defer cancel()

	if m.cfg.Sink != nil {
		m.cfg.Sink.BeginRun(RunInfo{
			Shards: len(m.shards),
			Rounds: m.cfg.Rounds,
			Blocks: m.NumBlocks(),
			Start:  m.cfg.Start,
			Period: timeseries.DefaultRound,
			Seed:   m.cfg.Seed,
		})
	}

	outcomes := make([]shardOutcome, len(m.shards))
	var shardWg sync.WaitGroup
	for i, s := range m.shards {
		shardWg.Add(1)
		go func(i int, s *shard) {
			defer shardWg.Done()
			outcomes[i] = m.supervise(ictx, s)
		}(i, s)
	}
	var auxWg sync.WaitGroup
	if m.cfg.WatchdogTick != nil {
		auxWg.Add(1)
		go func() {
			defer auxWg.Done()
			m.watchdog(ictx)
		}()
	}
	shardWg.Wait()
	cancel()
	auxWg.Wait()

	res := &Result{Completed: true, shards: m.shards}
	for i, o := range outcomes {
		res.Restarts += o.restarts
		if o.quarantined {
			res.Quarantined = append(res.Quarantined, i)
		}
		if o.drained {
			res.Drained = true
		}
		if o.halted {
			res.Halted = true
		}
		if !o.completed {
			res.Completed = false
		}
	}
	if err := m.fatal(); err != nil {
		return res, err
	}
	if res.Halted {
		return res, ErrHalted
	}
	return res, nil
}

// supervise is one shard's restart loop: run an attempt; on clean exits
// return; on crashes (panics, aborts, I/O errors) back off exponentially
// and retry with state rebuilt from the WAL, up to quarantine.
func (m *Monitor) supervise(ctx context.Context, s *shard) shardOutcome {
	var out shardOutcome
	defer s.done.Store(true)
	backoff := m.cfg.BackoffBase
	for {
		s.newAttempt()
		err := s.runAttempt(ctx)
		s.endAttempt()
		switch {
		case err == nil:
			out.completed = true
			return out
		case errors.Is(err, errDrained):
			out.drained = true
			return out
		case errors.Is(err, ErrHalted):
			out.halted = true
			return out
		}
		// A crash. Restart with backoff unless the shard is hopeless or the
		// monitor is shutting down.
		out.restarts++
		out.lastErr = err
		m.met.restarts.Inc()
		if out.restarts > m.cfg.MaxRestarts {
			out.quarantined = true
			m.met.quarantines.Inc()
			if m.cfg.Sink != nil {
				m.cfg.Sink.ShardDown(s.idx)
			}
			m.noteQuarantine()
			return out
		}
		select {
		case <-ctx.Done():
			out.halted = m.halted.Load()
			out.drained = !out.halted
			return out
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > m.cfg.BackoffMax {
			backoff = m.cfg.BackoffMax
		}
	}
}

// watchdog strikes shards whose running attempt's heartbeat stalls across
// tick intervals: WatchdogStrikes consecutive silent intervals abort the
// attempt (the supervisor restarts it); as many again without that same
// attempt exiting means the shard is wedged beyond recovery and the monitor
// dies loudly rather than reporting a silently incomplete study. Only a
// running attempt can be wedged: the supervisor's back-off between attempts
// is not counted, however many ticks it spans.
func (m *Monitor) watchdog(ctx context.Context) {
	last := make([]int64, len(m.shards))
	strikes := make([]int, len(m.shards))
	for i, s := range m.shards {
		last[i] = s.hb.Load()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case _, ok := <-m.cfg.WatchdogTick:
			if !ok {
				return
			}
			for i, s := range m.shards {
				if s.done.Load() || !s.attemptLive() {
					strikes[i] = 0
					continue
				}
				h := s.hb.Load()
				if h != last[i] {
					last[i] = h
					strikes[i] = 0
					continue
				}
				strikes[i]++
				m.met.watchdogStrikes.Inc()
				switch {
				case strikes[i] == m.cfg.WatchdogStrikes:
					s.abortAttempt()
					m.met.watchdogAborts.Inc()
				case strikes[i] >= 2*m.cfg.WatchdogStrikes:
					m.fail(fmt.Errorf("%w: shard %d made no progress through abort", ErrWatchdog, i))
					return
				}
			}
		}
	}
}
