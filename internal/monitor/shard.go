package monitor

// shard.go — one worker shard of the monitor: a contiguous slice of the
// sorted block set, probed round by round with a single long-lived
// BatchContext (the O(shards) memory bound), committed to the shard's WAL,
// snapshotted every SnapshotEvery rounds.
//
// The crash-recovery invariant is that a shard attempt NEVER patches
// partially-mutated in-memory state: every attempt rebuilds from scratch —
// fresh probers, fresh estimators, snapshot + WAL scan + replay — so the
// only state that survives a crash is committed state, and re-executing an
// uncommitted round is deterministic because probing is a pure function of
// (seed, block, virtual time). That uniform rebuild path is what makes a
// kill-and-recover run byte-identical to an uninterrupted one.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
	// errAborted: the watchdog aborted a wedged attempt; it is the cause
	// the attempt's context is cancelled with, which tells an abort from a
	// drain.
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
	// last is the current round's record entry, staged between probeRound
	// and commitRound (no allocation on the hot path).
	last blockObs
}

// shard owns a partition of the monitored blocks.
type shard struct {
	idx    int
	m      *Monitor
	blocks []netsim.BlockID // sorted, contiguous slice of the global order

	// Rebuilt from durable state at the start of every attempt.
	probers []*trinocular.Prober     // probers[i] probes blocks[i]
	bc      *trinocular.BatchContext // the wavefront's scratch
	aOps    []float64                // per-round availability inputs, reused
	obsBuf  []trinocular.RoundObs    // per-round observations, reused
	mons    []*blockMon
	round   int // next round to execute
	wal     *walWriter
	pub     []RoundPub // sink staging, holding each block's standing verdict; nil without a sink

	// Codec buffers, reused across rounds, snapshots and attempts.
	recBuf  []byte        // commitRound's frame: header + record payload
	snap    shardSnapshot // writeSnapshot's staging
	snapBuf []byte        // writeSnapshot's file image
	rec     walRecord     // recovery staging: decodeRecord fills it

	// hb is the watchdog heartbeat: bumped on every completed round, every
	// completed rebuild and every attempt's exit.
	hb atomic.Int64
	// committed is the high-water mark of durably committed rounds,
	// monotonic across restarts; the simulated-kill trigger reads it.
	committed atomic.Int64
	// done marks the shard finished (completed, drained, halted, or
	// quarantined); the watchdog skips done shards.
	done atomic.Bool
	// cancel cancels the running attempt's context; nil between attempts.
	cancel atomic.Pointer[context.CancelCauseFunc]
}

func (s *shard) dir() string { return filepath.Join(s.m.cfg.WALDir, shardDirName(s.idx)) }

// abortAttempt cancels the running attempt's context with errAborted
// (idempotent; a no-op between attempts).
func (s *shard) abortAttempt() {
	if cancel := s.cancel.Load(); cancel != nil {
		(*cancel)(errAborted)
	}
}

// attemptLive reports whether an attempt is running.
func (s *shard) attemptLive() bool { return s.cancel.Load() != nil }

// rebuild constructs the attempt's working state purely from configuration
// and durable state: fresh probers and estimators, then snapshot + WAL
// recovery when durability is on.
func (s *shard) rebuild() error {
	if err := s.reset(); err != nil {
		return err
	}
	s.wal = nil
	if s.m.cfg.WALDir == "" {
		return nil
	}
	return s.recoverWAL()
}

// reset gives the shard fresh probers and fresh estimators at round 0.
func (s *shard) reset() error {
	cfg := &s.m.cfg
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
	s.probers = s.probers[:0]
	s.mons = s.mons[:0]
	if cap(s.mons) < len(s.blocks) {
		s.mons = make([]*blockMon, 0, len(s.blocks))
	}
	for _, id := range s.blocks {
		blk := cfg.Net.Block(id)
		if blk == nil {
			return fmt.Errorf("monitor: shard %d: block %s not in network", s.idx, id)
		}
		// Every prober takes the campaign's seed: the walk, the restart
		// window and the retry jitter are keyed by (seed, block) alike.
		p := trinocular.New(cfg.Net, cfg.prober, cfg.Seed)
		if err := p.AddBlock(id, blk.EverActive()); err != nil {
			return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
		}
		// Pin the restart-phase epoch to the campaign start so cold rounds
		// fall on the same virtual times no matter when (or after how many
		// crashes) this attempt begins.
		p.PinEpoch(cfg.Start)
		s.probers = append(s.probers, p)
		s.mons = append(s.mons, &blockMon{
			id:     id,
			est:    core.NewEstimator(core.InitialA),
			short:  make([]float64, 0, cfg.Rounds),
			events: make([]core.OutageEvent, 0, 8),
		})
	}
	s.round = 0
	return nil
}

// recoverWAL restores committed state. The snapshot, if there is one, gives
// the prober and the estimators as of its round; then every segment is
// scanned from round 0 — the sealed segments are the series' only durable
// copy — and each record extends the series, events and failed counts: a
// record the snapshot covers as it was logged, a later one by replaying it
// (at most SnapshotEvery of them). A gap anywhere is ErrCorrupt. Damage at
// the tail of the final segment is the crash signature and is repaired by
// truncation; damage anywhere else is fatal. A leftover .open segment is
// sealed in place, so the directory converges to sealed history.
func (s *shard) recoverWAL() error {
	dir := s.dir()
	cfg := &s.m.cfg

	snapRound := -1
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
		snapRound = snap.Round
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
	}

	maxSeq, replayed, err := s.scanWAL(max(snapRound, 0))
	if err != nil {
		return err
	}
	if s.round < snapRound {
		// The log ends before the snapshot: damage cut records off the tail
		// of the open segment after the snapshot was written. The log is
		// the history, so recover from it alone, replaying all of it.
		if err := s.reset(); err != nil {
			return err
		}
		if maxSeq, replayed, err = s.scanWAL(0); err != nil {
			return err
		}
	}
	if snapRound >= 0 || s.round > 0 {
		s.m.met.recoveries.Inc()
		s.m.met.replayedRounds.Add(int64(replayed))
	}

	w, werr := newWALWriter(dir, s.idx, maxSeq+1, segmentBytes, cfg.SyncWAL, s.m.met)
	if werr != nil {
		return werr
	}
	s.wal = w
	return nil
}

// scanWAL reads every segment in order and applies its records from round
// 0, replaying those at or past snapRound. It returns the last segment
// sequence number seen and how many records it replayed.
func (s *shard) scanWAL(snapRound int) (maxSeq, replayed int, err error) {
	segs, err := listSegments(s.dir())
	if err != nil {
		return 0, 0, err
	}
	maxSeq = -1
	rec := &s.rec // every record decodes into the one staging record
	for i, sf := range segs {
		maxSeq = sf.seq
		data, rerr := os.ReadFile(sf.path)
		if rerr != nil {
			return 0, 0, fmt.Errorf("monitor: shard %d: %w", s.idx, rerr)
		}
		shardID, recs, tail, damage := decodeSegment(data)
		if damage != nil {
			if i != len(segs)-1 || sf.sealed {
				// A sealed or non-final segment is supposed to be beyond
				// doubt; damage here is unrecoverable history loss.
				return 0, 0, fmt.Errorf("monitor: shard %d segment %s damaged mid-history: %w", s.idx, sf.path, damage)
			}
			s.m.met.truncatedTails.Inc()
			if tail < int64(walHeaderSize) {
				// Even the header is gone: the crash beat the first write.
				// The file carries nothing; drop it rather than sealing an
				// undecodable husk.
				if err := os.Remove(sf.path); err != nil {
					return 0, 0, fmt.Errorf("monitor: shard %d: %w", s.idx, err)
				}
				continue
			}
		}
		if len(recs) > 0 && shardID != s.idx {
			return 0, 0, fmt.Errorf("monitor: shard %d segment %s claims shard %d: %w", s.idx, sf.path, shardID, ErrCorrupt)
		}
		for _, payload := range recs {
			if derr := decodeRecord(payload, rec); derr != nil {
				return 0, 0, fmt.Errorf("monitor: shard %d segment %s: %w", s.idx, sf.path, derr)
			}
			if rec.Round != s.round {
				return 0, 0, fmt.Errorf("monitor: shard %d wal gap: have round %d, next record is %d: %w",
					s.idx, s.round, rec.Round, ErrCorrupt)
			}
			replay := rec.Round >= snapRound
			if err := s.applyRecord(rec, replay); err != nil {
				return 0, 0, err
			}
			s.round++
			if replay {
				replayed++
			}
		}
		if !sf.sealed {
			if err := s.sealLeftover(sf, tail, damage != nil); err != nil {
				return 0, 0, err
			}
		}
	}
	return maxSeq, replayed, nil
}

// sealLeftover seals a segment a crash left open, cutting a torn tail off
// first. durable.Seal fsyncs the repaired file before the rename, so the
// sealed name never points at a tail the disk does not hold.
func (s *shard) sealLeftover(sf segmentFile, tail int64, torn bool) error {
	f, err := os.OpenFile(sf.path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
	}
	if torn {
		if err := f.Truncate(tail); err != nil {
			_ = f.Close() // best effort: the truncate error is the one to surface
			return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
		}
	}
	if err := durable.Seal(f, sf.path, filepath.Join(filepath.Dir(sf.path), segName(sf.seq, true))); err != nil {
		return fmt.Errorf("monitor: shard %d: %w", s.idx, err)
	}
	return nil
}

// applySnapshot loads a snapshot's prober and estimator state into the
// fresh mons and probers; the series come from the segments.
func (s *shard) applySnapshot(snap *shardSnapshot) error {
	if len(snap.Blocks) != len(s.mons) {
		return fmt.Errorf("monitor: shard %d snapshot has %d blocks, monitor %d: %w",
			s.idx, len(snap.Blocks), len(s.mons), ErrCorrupt)
	}
	for i := range snap.Blocks {
		bs, mon := &snap.Blocks[i], s.mons[i]
		if mon.id != bs.Prober.ID {
			return fmt.Errorf("monitor: shard %d snapshot block %s, monitor %s: %w",
				s.idx, bs.Prober.ID, mon.id, ErrCorrupt)
		}
		mon.est.Restore(bs.Est)
		if err := s.probers[i].Restore(bs.Prober); err != nil {
			return fmt.Errorf("monitor: shard %d snapshot: %v: %w", s.idx, err, ErrCorrupt)
		}
	}
	return nil
}

// applyRecord extends every block's series, events and failed count by one
// committed round. Without replay the round is taken as it was logged (the
// snapshot already holds the state it left). With replay it is re-derived:
// the logged outcomes go back through the prober's round machine and the
// observation through the estimator, exactly as the live round went, and
// the result must reproduce the logged Âs bit for bit and the logged flags,
// or the record is corrupt. A warm call allocates nothing.
func (s *shard) applyRecord(rec *walRecord, replay bool) error {
	if len(rec.Blocks) != len(s.mons) {
		return fmt.Errorf("monitor: shard %d record round %d has %d blocks, monitor %d: %w",
			s.idx, rec.Round, len(rec.Blocks), len(s.mons), ErrCorrupt)
	}
	now := s.m.cfg.Start.Add(time.Duration(rec.Round) * timeseries.DefaultRound)
	for i, mon := range s.mons {
		o := &rec.Blocks[i]
		if !replay {
			mon.appendLogged(o, rec.Round)
			continue
		}
		obs, err := s.probers[i].ReplayRound(now, mon.est.Operational(), o.Log, o.Outcomes, o.Retries)
		if err != nil {
			return fmt.Errorf("monitor: shard %d replay of round %d: %v: %w", s.idx, rec.Round, err, ErrCorrupt)
		}
		mon.observe(&obs, rec.Round)
		if l := &mon.last; math.Float64bits(l.Short) != math.Float64bits(o.Short) || l.Event != o.Event || l.Failed != o.Failed {
			return fmt.Errorf("monitor: shard %d replay of round %d: block %s re-derives Âs %v, event %d, failed %v where the log says %v, %d, %v: %w",
				s.idx, rec.Round, mon.id, l.Short, l.Event, l.Failed, o.Short, o.Event, o.Failed, ErrCorrupt)
		}
	}
	return nil
}

// runAttempt is one supervised life of the shard: rebuild, then probe and
// commit rounds until done, drained, halted, aborted, or crashed. Panics
// (including injected chaos kills) are converted to errors so the
// supervisor can apply restart policy. run is the monitor's context and
// ctx the attempt's, which an abort or a drain cancels.
func (s *shard) runAttempt(run, ctx context.Context) (err error) {
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
		if ctx.Err() != nil {
			return s.stop(ctx)
		}
		if s.m.chaos.ShouldHardStall(s.idx, r) {
			// Wedged beyond the watchdog's abort: only monitor shutdown
			// (which the watchdog escalates to) releases the shard.
			<-run.Done()
			return s.abandonWith(errAborted)
		}
		if s.m.chaos.ShouldStall(s.idx, r) {
			<-ctx.Done()
			return s.stop(ctx)
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
		if err := s.wal.close(); err != nil {
			return err
		}
		s.wal = nil
		if err := s.writeSnapshot(); err != nil {
			return err
		}
	}
	return nil
}

// stop ends an attempt whose context is cancelled: an abort abandons the
// WAL, anything else is the monitor's shutdown.
func (s *shard) stop(ctx context.Context) error {
	if errors.Is(context.Cause(ctx), errAborted) {
		return s.abandonWith(errAborted)
	}
	return s.shutdown()
}

// shutdown handles the monitor's cancellation: a halt abandons the WAL
// exactly as a kill -9 would; a graceful drain writes a final snapshot and
// seals.
func (s *shard) shutdown() error {
	if s.m.halted.Load() {
		return s.abandonWith(ErrHalted)
	}
	if s.wal != nil {
		if err := s.wal.close(); err != nil {
			return err
		}
		s.wal = nil
		if err := s.writeSnapshot(); err != nil {
			return err
		}
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
		if err := trinocular.ProbeRoundsBatchGroup(s.bc, s.probers[g:e], s.blocks[g:e], s.aOps[:n], now, s.obsBuf[:n]); err != nil {
			// Shape mismatches and untracked ids are construction invariant
			// violations, surfaced through the supervisor's panic recovery.
			panic(err)
		}
		for i := 0; i < n; i++ {
			s.mons[g+i].observe(&s.obsBuf[i], r)
		}
	}
}

// observe folds one block's round observation into its in-memory
// accumulation and stages the round's record entry in mon.last. Live
// rounds and replayed ones both run it. obs is a pointer only to avoid a
// per-round struct copy; it is read, never mutated.
func (mon *blockMon) observe(obs *trinocular.RoundObs, r int) {
	l := &mon.last
	l.Log, l.Outcomes, l.Retries = obs.Log, obs.Outcomes(), obs.Retries
	if l.Failed = obs.Failed(); l.Failed {
		mon.failed++
		l.Short = lastOr(mon.short, core.InitialA)
	} else {
		mon.est.Observe(obs.Positive, obs.Total)
		l.Short = mon.est.ShortTerm()
	}
	mon.short = append(mon.short, l.Short)
	l.Event = eventNone
	if obs.Changed {
		l.Event = eventDown
		if obs.Up {
			l.Event = eventUp
		}
		mon.events = append(mon.events, core.OutageEvent{Round: r, Down: !obs.Up})
	}
}

// appendLogged extends the block's series, events and failed count by a
// round exactly as its record logged it.
func (mon *blockMon) appendLogged(o *blockObs, r int) {
	mon.short = append(mon.short, o.Short)
	if o.Event != eventNone {
		mon.events = append(mon.events, core.OutageEvent{Round: r, Down: o.Event == eventDown})
	}
	if o.Failed {
		mon.failed++
	}
}

// commitRound appends the round's record — what every block's round
// observed, staged in mon.last — to the WAL. A crash before this append
// loses the round entirely (it re-executes identically on restart); a crash
// after it makes the round durable. There is no in-between: the frame is a
// single write. The buffer is presized for the longest possible entries, so
// a warm commit that neither opens nor seals a segment performs no
// allocation.
//
//lint:hotpath: warm commit 0 allocs/op budget pinned by TestMonitorRoundAllocFree/wal
func (s *shard) commitRound(r int) error {
	if s.wal == nil {
		return nil
	}
	buf := slices.Grow(s.recBuf[:0], walFrameSize+recordHeaderSize+len(s.blocks)*maxEntrySize)
	buf = appendRecordHeader(beginFrame(buf), r, len(s.blocks))
	for _, mon := range s.mons {
		buf = appendBlockObs(buf, &mon.last)
	}
	finishFrame(buf, 0)
	s.recBuf = buf
	return s.wal.append(buf)
}

// writeSnapshot checkpoints the shard's derived state — prober and
// estimator, O(blocks) — atomically. It holds no series: the segments,
// which are never deleted, are the series' only copy. The open segment is
// fsynced first, so every record the snapshot covers is on disk before the
// snapshot is; only records past it can be lost to a power cut.
func (s *shard) writeSnapshot() error {
	if s.wal != nil {
		if err := s.wal.flush(); err != nil {
			return err
		}
	}
	s.snap.Shard, s.snap.Round = s.idx, s.round
	s.snap.Blocks = s.snap.Blocks[:0]
	for i, p := range s.probers {
		s.snap.Blocks = append(s.snap.Blocks, blockSnapshot{Prober: p.State(), Est: s.mons[i].est.State()})
	}
	s.snapBuf = encodeSnapshot(s.snapBuf, &s.snap)
	if err := durable.WriteFileAtomic(filepath.Join(s.dir(), snapName), s.snapBuf, 0o644); err != nil {
		return fmt.Errorf("monitor: shard %d snapshot: %w", s.idx, err)
	}
	s.m.met.snapshots.Inc()
	return nil
}

func lastOr(s []float64, def float64) float64 {
	if len(s) == 0 {
		return def
	}
	return s[len(s)-1]
}
