package monitor

// shard.go — one worker shard of the monitor: a contiguous slice of the
// sorted block set, probed round by round with a single long-lived
// BatchContext (the O(shards) memory bound), committed to the shard's WAL,
// snapshotted every SnapshotEvery rounds.
//
// The crash-recovery invariant is that a shard attempt NEVER patches
// partially-mutated in-memory state: every attempt rebuilds from scratch —
// fresh prober, fresh estimators, snapshot + WAL replay — so the only state
// that survives a crash is committed state, and re-executing an uncommitted
// round is deterministic because probing is a pure function of (seed, block,
// virtual time). That uniform rebuild path is what makes a kill-and-recover
// run byte-identical to an uninterrupted one.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/durable"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

// probeGroupSize caps how many blocks one batched wavefront carries. Large
// enough to amortize the per-batch boundary crossing, small enough that the
// per-lane scratch keeps the shard's steady-state memory O(shards) rather
// than O(blocks) (TestMonitorHeapIsWorkerBound pins the bound).
const probeGroupSize = 64

// Internal control-flow sentinels for a shard attempt's exit.
var (
	// errDrained: the context was cancelled and the shard finished its
	// in-flight round, wrote a final snapshot, and sealed its WAL.
	errDrained = errors.New("monitor: shard drained")
	// errAborted: the watchdog (or supervisor) aborted a wedged attempt.
	errAborted = errors.New("monitor: shard attempt aborted")
)

// blockMon is one block's in-memory accumulation — the mutable mirror of
// what the WAL commits.
type blockMon struct {
	id     netsim.BlockID
	est    *core.Estimator
	short  []float64
	events []core.OutageEvent
	failed int
	// lastEvent/lastFailed stage the current round's delta between
	// probeRound and commitRound (no allocation on the hot path).
	lastEvent  int
	lastFailed bool
}

// shard owns a partition of the monitored blocks.
type shard struct {
	idx    int
	m      *Monitor
	blocks []netsim.BlockID // sorted, contiguous slice of the global order

	// Rebuilt from durable state at the start of every attempt.
	prober *trinocular.Prober
	bc     *trinocular.BatchContext // the wavefront's scratch
	aOps   []float64                // per-round availability inputs, reused
	obsBuf []trinocular.RoundObs    // per-round observations, reused
	mons   []*blockMon
	round  int // next round to execute
	wal    *walWriter
	pub    []RoundPub // sink staging buffer reused across rounds

	// Codec buffers, reused across rounds, snapshots and attempts.
	recBuf  []byte                  // commitRound's frame: header + record payload
	snapBuf []byte                  // writeSnapshot's file image
	rec     walRecord               // replay staging: decodeRecord fills it
	states  []trinocular.BlockState // replay staging for Prober.RestoreState

	// hb is the watchdog heartbeat: bumped on every completed round, every
	// completed rebuild and every attempt's exit.
	hb atomic.Int64
	// committed is the high-water mark of durably committed rounds,
	// monotonic across restarts; the simulated-kill trigger reads it.
	committed atomic.Int64
	// done marks the shard finished (completed, drained, halted, or
	// quarantined); the watchdog skips done shards.
	done atomic.Bool

	attemptMu sync.Mutex
	abort     chan struct{}
	aborted   bool
}

func (s *shard) dir() string { return filepath.Join(s.m.cfg.WALDir, shardDirName(s.idx)) }

// newAttempt arms a fresh abort channel for the next attempt.
func (s *shard) newAttempt() {
	s.attemptMu.Lock()
	s.abort = make(chan struct{})
	s.aborted = false
	s.attemptMu.Unlock()
}

// abortAttempt asks the current attempt to stop (idempotent).
func (s *shard) abortAttempt() {
	s.attemptMu.Lock()
	if !s.aborted && s.abort != nil {
		close(s.abort)
		s.aborted = true
	}
	s.attemptMu.Unlock()
}

// endAttempt marks the attempt over. Until newAttempt there is nothing the
// watchdog could abort: the supervisor is backing off or giving up, and the
// heartbeat bump tells the watchdog that whatever attempt it next sees
// silent is not the one it was counting strikes against.
func (s *shard) endAttempt() {
	s.attemptMu.Lock()
	s.abort = nil
	s.attemptMu.Unlock()
	s.hb.Add(1)
}

// attemptLive reports whether an attempt is running (between newAttempt
// and endAttempt).
func (s *shard) attemptLive() bool {
	s.attemptMu.Lock()
	defer s.attemptMu.Unlock()
	return s.abort != nil
}

func (s *shard) abortCh() <-chan struct{} {
	s.attemptMu.Lock()
	defer s.attemptMu.Unlock()
	return s.abort
}

// rebuild constructs the attempt's working state purely from configuration
// and durable state: fresh prober and estimators, then snapshot + WAL
// replay when durability is on.
func (s *shard) rebuild() error {
	cfg := &s.m.cfg
	s.prober = trinocular.New(cfg.Net, cfg.Prober, cfg.Seed)
	s.bc = trinocular.NewBatchContext()
	group := len(s.blocks)
	if group > probeGroupSize {
		group = probeGroupSize
	}
	if cap(s.aOps) < group {
		s.aOps = make([]float64, group)
		s.obsBuf = make([]trinocular.RoundObs, group)
	}
	s.aOps = s.aOps[:group]
	s.obsBuf = s.obsBuf[:group]
	s.mons = s.mons[:0]
	if cap(s.mons) < len(s.blocks) {
		s.mons = make([]*blockMon, 0, len(s.blocks))
	}
	for _, id := range s.blocks {
		blk := cfg.Net.Block(id)
		if blk == nil {
			return fmt.Errorf("monitor: shard %d: block %s not in network", s.idx, id)
		}
		if err := s.prober.AddBlock(id, blk.EverActive()); err != nil {
			return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
		}
		s.mons = append(s.mons, &blockMon{
			id:     id,
			est:    core.NewEstimator(initialA),
			short:  make([]float64, 0, cfg.Rounds),
			events: make([]core.OutageEvent, 0, 8),
		})
	}
	// Pin the restart-phase epoch to the campaign start so cold rounds fall
	// on the same virtual times no matter when (or after how many crashes)
	// this attempt begins.
	if err := s.prober.RestoreState(trinocular.State{Epoch: cfg.Start}); err != nil {
		return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
	}
	s.round = 0
	s.wal = nil
	if cfg.WALDir == "" {
		return nil
	}
	return s.recoverWAL()
}

// recoverWAL restores committed state: latest snapshot, then ordered replay
// of WAL records past it. Damage at the tail of the final segment is the
// crash signature and is repaired by truncation; damage anywhere else is
// fatal. Leftover .open segments (from crashes) are repaired and sealed so
// the directory converges to sealed history plus one live segment.
func (s *shard) recoverWAL() error {
	dir := s.dir()
	cfg := &s.m.cfg

	recovered := false
	snapPath := filepath.Join(dir, snapName)
	if data, err := os.ReadFile(snapPath); err == nil {
		snap, derr := decodeSnapshot(data)
		if derr != nil {
			return fmt.Errorf("monitor: shard %d snapshot %s: %w", s.idx, snapPath, derr)
		}
		if snap.Shard != s.idx {
			return fmt.Errorf("monitor: snapshot for shard %d found in shard %d dir: %w", snap.Shard, s.idx, ErrCorrupt)
		}
		if err := s.applySnapshot(snap); err != nil {
			return err
		}
		s.round = snap.Round
		recovered = true
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	maxSeq := -1
	replayed := 0
	// segRounds remembers each surviving sealed segment's max round so the
	// new writer's snapshot GC covers pre-crash history too.
	segRounds := make(map[int]int)
	rec := &s.rec // every record decodes into the one staging record
	for i, sf := range segs {
		maxSeq = sf.seq
		data, rerr := os.ReadFile(sf.path)
		if rerr != nil {
			return fmt.Errorf("monitor: shard %d: %w", s.idx, rerr)
		}
		shardID, recs, tail, damage := decodeSegment(data)
		if damage != nil {
			if i != len(segs)-1 || sf.sealed {
				// A sealed or non-final segment is supposed to be beyond
				// doubt; damage here is unrecoverable history loss.
				return fmt.Errorf("monitor: shard %d segment %s damaged mid-history: %w", s.idx, sf.path, damage)
			}
			s.m.met.truncatedTails.Inc()
			if tail < int64(walHeaderSize) {
				// Even the header is gone: the crash beat the first write.
				// The file carries nothing; drop it rather than sealing an
				// undecodable husk.
				if err := os.Remove(sf.path); err != nil {
					return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
				}
				continue
			}
			if err := os.Truncate(sf.path, tail); err != nil {
				return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
			}
		}
		if len(recs) > 0 && shardID != s.idx {
			return fmt.Errorf("monitor: shard %d segment %s claims shard %d: %w", s.idx, sf.path, shardID, ErrCorrupt)
		}
		segMax := -1
		for _, payload := range recs {
			if derr := decodeRecord(payload, rec); derr != nil {
				return fmt.Errorf("monitor: shard %d segment %s: %w", s.idx, sf.path, derr)
			}
			if rec.Round > segMax {
				segMax = rec.Round
			}
			if rec.Round < s.round {
				continue // covered by the snapshot
			}
			if rec.Round != s.round {
				return fmt.Errorf("monitor: shard %d wal gap: have round %d, next record is %d: %w",
					s.idx, s.round, rec.Round, ErrCorrupt)
			}
			if err := s.applyRecord(rec); err != nil {
				return err
			}
			s.round++
			replayed++
		}
		if !sf.sealed {
			// Repaired (or cleanly abandoned) leftover: seal it in place so
			// future recoveries treat it as immutable history.
			if err := durable.Rename(sf.path, filepath.Join(dir, segName(sf.seq, true))); err != nil {
				return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
			}
		}
		segRounds[sf.seq] = segMax
	}
	if recovered || replayed > 0 {
		s.m.met.recoveries.Inc()
		s.m.met.replayedRounds.Add(int64(replayed))
	}

	w, werr := newWALWriter(dir, s.idx, maxSeq+1, cfg.SegmentBytes, cfg.SyncWAL, s.m.met)
	if werr != nil {
		return werr
	}
	for seq, maxRound := range segRounds {
		w.sealedMax[seq] = maxRound
	}
	s.wal = w
	return nil
}

// applySnapshot loads a snapshot's cumulative state into the fresh mons and
// prober.
func (s *shard) applySnapshot(snap *shardSnapshot) error {
	if len(snap.Blocks) != len(s.mons) {
		return fmt.Errorf("monitor: shard %d snapshot has %d blocks, monitor %d: %w",
			s.idx, len(snap.Blocks), len(s.mons), ErrCorrupt)
	}
	s.states = s.states[:0]
	for i := range snap.Blocks {
		bs, mon := &snap.Blocks[i], s.mons[i]
		if mon.id != bs.Prober.ID {
			return fmt.Errorf("monitor: shard %d snapshot block %s, monitor %s: %w",
				s.idx, bs.Prober.ID, mon.id, ErrCorrupt)
		}
		mon.est.Restore(bs.Est)
		mon.short = append(mon.short[:0], bs.Short...)
		mon.events = append(mon.events[:0], bs.Events...)
		mon.failed = bs.Failed
		s.states = append(s.states, bs.Prober)
	}
	if err := s.prober.RestoreState(trinocular.State{Blocks: s.states}); err != nil {
		return fmt.Errorf("monitor: shard %d snapshot: %v: %w", s.idx, err, ErrCorrupt)
	}
	return nil
}

// applyRecord replays one committed round into the in-memory state. A warm
// replay allocates nothing: estimators are restored in place and the prober
// states stage through the shard's reused slice.
func (s *shard) applyRecord(rec *walRecord) error {
	if len(rec.Deltas) != len(s.mons) {
		return fmt.Errorf("monitor: shard %d record round %d has %d blocks, monitor %d: %w",
			s.idx, rec.Round, len(rec.Deltas), len(s.mons), ErrCorrupt)
	}
	s.states = s.states[:0]
	for i := range rec.Deltas {
		d := &rec.Deltas[i]
		mon := s.mons[i]
		if mon.id != d.Prober.ID {
			return fmt.Errorf("monitor: shard %d record block %s, monitor %s: %w",
				s.idx, d.Prober.ID, mon.id, ErrCorrupt)
		}
		mon.est.Restore(d.Est)
		mon.short = append(mon.short, d.Short)
		switch d.Event {
		case eventDown:
			mon.events = append(mon.events, core.OutageEvent{Round: rec.Round, Down: true})
		case eventUp:
			mon.events = append(mon.events, core.OutageEvent{Round: rec.Round, Down: false})
		}
		if d.Failed {
			mon.failed++
		}
		s.states = append(s.states, d.Prober)
	}
	if err := s.prober.RestoreState(trinocular.State{Blocks: s.states}); err != nil {
		return fmt.Errorf("monitor: shard %d replay: %v: %w", s.idx, err, ErrCorrupt)
	}
	return nil
}

// runAttempt is one supervised life of the shard: rebuild, then probe and
// commit rounds until done, drained, halted, aborted, or crashed. Panics
// (including injected chaos kills) are converted to errors so the
// supervisor can apply restart policy.
func (s *shard) runAttempt(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if s.wal != nil {
				s.wal.abandon()
				s.wal = nil
			}
			err = fmt.Errorf("monitor: shard %d panic: %v", s.idx, r)
		}
	}()
	if err := s.rebuild(); err != nil {
		return err
	}
	s.publishResync()
	s.hb.Add(1)
	cfg := &s.m.cfg
	for s.round < cfg.Rounds {
		r := s.round
		select {
		case <-ctx.Done():
			return s.shutdown()
		case <-s.abortCh():
			return s.abandonWith(errAborted)
		default:
		}
		if s.m.chaos.ShouldHardStall(s.idx, r) {
			// Wedged beyond the watchdog's abort: only monitor shutdown
			// (which the watchdog escalates to) releases the shard.
			<-ctx.Done()
			return s.abandonWith(errAborted)
		}
		if s.m.chaos.ShouldStall(s.idx, r) {
			select {
			case <-s.abortCh():
				return s.abandonWith(errAborted)
			case <-ctx.Done():
				return s.shutdown()
			}
		}
		s.probeRound(r)
		if s.m.chaos.ShouldKill(s.idx, r) {
			panic(fmt.Sprintf("chaos: kill shard %d after probing round %d", s.idx, r))
		}
		if err := s.commitRound(r); err != nil {
			return err
		}
		s.publishRound(r)
		s.round = r + 1
		if int64(s.round) > s.committed.Load() {
			s.committed.Store(int64(s.round))
		}
		s.hb.Add(1)
		s.m.met.rounds.Inc()
		if cfg.SnapshotEvery > 0 && s.wal != nil && s.round%cfg.SnapshotEvery == 0 {
			if err := s.writeSnapshot(); err != nil {
				return err
			}
		}
		s.m.maybeHalt()
		if s.m.halted.Load() {
			return s.abandonWith(ErrHalted)
		}
	}
	if s.wal != nil {
		if err := s.writeSnapshot(); err != nil {
			return err
		}
		if err := s.wal.close(); err != nil {
			return err
		}
		s.wal = nil
	}
	return nil
}

// shutdown handles context cancellation: a halt abandons the WAL exactly as
// a kill -9 would; a graceful drain writes a final snapshot and seals.
func (s *shard) shutdown() error {
	if s.m.halted.Load() {
		return s.abandonWith(ErrHalted)
	}
	if s.wal != nil {
		if err := s.writeSnapshot(); err != nil {
			return err
		}
		if err := s.wal.close(); err != nil {
			return err
		}
		s.wal = nil
	}
	return errDrained
}

// abandonWith drops the WAL handle without sealing and returns reason.
func (s *shard) abandonWith(reason error) error {
	if s.wal != nil {
		s.wal.abandon()
		s.wal = nil
	}
	return reason
}

// probeRound executes one round over the shard's blocks. This is the hot
// path: a warm round performs no allocations (series capacity is
// preallocated; the shard's one BatchContext carries the wire scratch),
// and commitRound holds the durable half of the round to the same budget.
// The shard's round crosses the netsim boundary as batched wavefronts.
//
//lint:hotpath: warm-round 0 allocs/op budget pinned by TestMonitorRoundAllocFree
func (s *shard) probeRound(r int) {
	cfg := &s.m.cfg
	now := cfg.Start.Add(time.Duration(r) * timeseries.DefaultRound)
	// Wavefronts run over bounded groups, not the whole shard at once: the
	// batch scratch (lanes, packet arena, reply arena) grows with the
	// largest batch, so capping the group keeps the shard's retained probe
	// scratch O(1) no matter the world size. Per-block results don't depend
	// on grouping.
	for g := 0; g < len(s.blocks); g += probeGroupSize {
		e := g + probeGroupSize
		if e > len(s.blocks) {
			e = len(s.blocks)
		}
		n := e - g
		for i := 0; i < n; i++ {
			s.aOps[i] = s.mons[g+i].est.Operational()
		}
		if err := s.prober.ProbeRoundsBatch(s.bc, s.blocks[g:e], s.aOps[:n], now, s.obsBuf[:n]); err != nil {
			// Shape mismatches and untracked ids are construction invariant
			// violations, surfaced through the supervisor's panic recovery.
			panic(err)
		}
		for i := 0; i < n; i++ {
			s.applyObs(s.mons[g+i], &s.obsBuf[i], r)
		}
	}
}

// applyObs folds one block's round observation into its in-memory
// accumulation. obs is a pointer only to avoid a per-round struct copy; it
// is read, never mutated.
func (s *shard) applyObs(mon *blockMon, obs *trinocular.RoundObs, r int) {
	if obs.Failed() {
		mon.failed++
		mon.short = append(mon.short, lastOr(mon.short, initialA))
		mon.lastFailed = true
	} else {
		mon.est.Observe(obs.Positive, obs.Total)
		mon.short = append(mon.short, mon.est.ShortTerm())
		mon.lastFailed = false
	}
	mon.lastEvent = eventNone
	if obs.Changed {
		if obs.Up {
			mon.lastEvent = eventUp
		} else {
			mon.lastEvent = eventDown
		}
		mon.events = append(mon.events, core.OutageEvent{Round: r, Down: !obs.Up})
	}
}

// commitRound appends the round's deltas to the WAL. A crash before this
// append loses the round entirely (it re-executes identically on restart);
// a crash after it makes the round durable. There is no in-between: the
// frame is a single write. The frame is encoded straight from the mons and
// the prober into the shard's reused buffer, so a warm commit that neither
// rotates nor snapshots performs no allocation.
//
//lint:hotpath: warm commit 0 allocs/op budget pinned by TestMonitorRoundAllocFree/wal
func (s *shard) commitRound(r int) error {
	if s.wal == nil {
		return nil
	}
	buf := slices.Grow(s.recBuf[:0], walFrameSize+recordHeaderSize+len(s.blocks)*deltaSize)
	buf = appendRecordHeader(beginFrame(buf), r, len(s.blocks))
	var d blockDelta
	for i, id := range s.blocks {
		mon := s.mons[i]
		var ok bool
		if d.Prober, ok = s.prober.BlockStateOf(id); !ok {
			return fmt.Errorf("monitor: shard %d: block %s lost from prober", s.idx, id)
		}
		d.Est = mon.est.State()
		d.Short = mon.short[len(mon.short)-1]
		d.Event = mon.lastEvent
		d.Failed = mon.lastFailed
		buf = appendDelta(buf, &d)
	}
	finishFrame(buf, 0)
	s.recBuf = buf
	return s.wal.append(buf, r)
}

// writeSnapshot persists the shard's cumulative committed state atomically
// and garbage-collects sealed segments the snapshot covers. The snapshot
// aliases the live series; encodeSnapshot copies them as bulk float bits
// into the shard's reused image buffer.
func (s *shard) writeSnapshot() error {
	snap := shardSnapshot{
		Shard:  s.idx,
		Round:  s.round,
		Blocks: make([]blockSnapshot, 0, len(s.blocks)),
	}
	for i, id := range s.blocks {
		ps, ok := s.prober.BlockStateOf(id)
		if !ok {
			return fmt.Errorf("monitor: shard %d: block %s lost from prober", s.idx, id)
		}
		mon := s.mons[i]
		snap.Blocks = append(snap.Blocks, blockSnapshot{
			Prober: ps,
			Est:    mon.est.State(),
			Short:  mon.short,
			Events: mon.events,
			Failed: mon.failed,
		})
	}
	s.snapBuf = encodeSnapshot(s.snapBuf, &snap)
	if err := durable.WriteFileAtomic(filepath.Join(s.dir(), snapName), s.snapBuf, 0o644); err != nil {
		return fmt.Errorf("monitor: shard %d snapshot: %w", s.idx, err)
	}
	s.m.met.snapshots.Inc()
	if s.wal != nil {
		s.wal.gc(snap.Round - 1)
	}
	return nil
}

func lastOr(s []float64, def float64) float64 {
	if len(s) == 0 {
		return def
	}
	return s[len(s)-1]
}
