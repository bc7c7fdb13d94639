package main

// monitorwal.go — the monitor-wal workload: the write side of `sleepscan
// serve`. A sharded campaign commits every round to its WAL, snapshots every
// 16 rounds and publishes every round into a serve.Engine.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"sleepnet/internal/analysis"
	"sleepnet/internal/durable"
	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/serve"
	"sleepnet/internal/world"
)

const (
	// monitorBlocks sizes the campaign. ISSUE 11 sized it at 10000 (about
	// 8 s a repetition and 860 MB of WAL); cut for the same reason as
	// studyBlocks. Bytes and time per block-round are unchanged by the cut.
	monitorBlocks = 1000
	// monitorRounds is two virtual days, so the streaming classifier's
	// one-day floor is crossed halfway through.
	monitorRounds    = 262
	monitorSnapEvery = 16
	// traceMonitorReps is how many times the traced run repeats each
	// configuration of its differential ladder; it reports medians.
	traceMonitorReps = 3
)

func monitorWorld(seed uint64) (*world.World, error) {
	return world.Generate(world.Config{Blocks: monitorBlocks, Seed: seed, OutagesPerBlockWeek: 0.15})
}

// monitorRun is one campaign's configuration on the differential ladder.
type monitorRun struct {
	walDir    string // "" runs in memory
	snapEvery int    // 0 takes the workload's default
	sink      monitor.EpochSink
	reg       *metrics.Registry
	haltAfter int
}

// monitorOutcome is what one campaign left behind.
type monitorOutcome struct {
	res    *monitor.Result
	blocks int
	runS   float64 // New plus Run
}

// runCampaign builds and runs one campaign. The flush policy is fixed:
// SyncWAL=false, so records reach the kernel every round and only seals and
// snapshots fsync.
func runCampaign(w *world.World, seed uint64, r monitorRun) (monitorOutcome, error) {
	snap := r.snapEvery
	if snap == 0 {
		snap = monitorSnapEvery
	}
	t0 := nanos()
	m, err := monitor.New(monitor.Config{
		Net:            w.Net,
		Start:          analysis.DefaultStart,
		Rounds:         monitorRounds,
		Shards:         loadShards,
		Seed:           seed,
		WALDir:         r.walDir,
		SyncWAL:        false,
		SnapshotEvery:  snap,
		Sink:           r.sink,
		Metrics:        r.reg,
		HaltAfterRound: r.haltAfter,
	})
	if err != nil {
		return monitorOutcome{}, err
	}
	out := monitorOutcome{blocks: m.NumBlocks()}
	out.res, err = m.Run(context.Background())
	out.runS = secondsSince(t0)
	if err != nil && !(r.haltAfter > 0 && errors.Is(err, monitor.ErrHalted)) {
		return out, fmt.Errorf("monitor run: %w", err)
	}
	return out, nil
}

// digest is the campaign's identity: sha256 of Study.Encode().
func (o monitorOutcome) digest() (string, error) {
	st, err := o.res.Study()
	if err != nil {
		return "", err
	}
	enc, err := st.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

// checkCampaign is the per-repetition output check of a full campaign.
func checkCampaign(out monitorOutcome, eng *serve.Engine, wantDigest string) error {
	if err := check(out.res.Completed && out.res.Restarts == 0 && len(out.res.Quarantined) == 0,
		"campaign completed=%v restarts=%d quarantined=%v", out.res.Completed, out.res.Restarts, out.res.Quarantined); err != nil {
		return err
	}
	if eng != nil {
		ep := eng.Epoch()
		if err := check(ep != nil && ep.Rounds == monitorRounds, "sealed epoch does not cover all %d rounds", monitorRounds); err != nil {
			return err
		}
	}
	got, err := out.digest()
	if err != nil {
		return err
	}
	return check(got == wantDigest, "study digest %s differs from the WAL-off reference %s", got, wantDigest)
}

func runMonitor(e env) (*result, error) {
	res := newResult()
	var w *world.World
	var dir string
	if err := repeatSetup(res, "setup_s", func() (err error) {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		if w, err = monitorWorld(e.seed); err != nil {
			return err
		}
		dir, err = e.tempDir("monitor-wal-")
		return err
	}); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Warm-up: a WAL-off, sink-off campaign gives the study every durable
	// repetition must reproduce; one full campaign then warms the disk path.
	t0 := nanos()
	refRun, err := runCampaign(w, e.seed, monitorRun{})
	if err != nil {
		return nil, err
	}
	want, err := refRun.digest()
	if err != nil {
		return nil, err
	}
	var out monitorOutcome
	var eng *serve.Engine
	var reg *metrics.Registry
	n := 0
	rep := func() (err error) {
		n++
		eng, reg = serve.NewEngine(serve.EngineConfig{}), metrics.New()
		out, err = runCampaign(w, e.seed, monitorRun{walDir: filepath.Join(dir, fmt.Sprint("rep", n)), sink: eng, reg: reg})
		return err
	}
	after := func() error {
		res.Attempted += monitorRounds * loadShards
		res.Failed += monitorRounds*loadShards - int(reg.Snapshot().Counter("monitor.rounds_committed"))
		if err := checkCampaign(out, eng, want); err != nil {
			return err
		}
		return os.RemoveAll(filepath.Join(dir, fmt.Sprint("rep", n)))
	}
	if err := rep(); err != nil {
		return nil, err
	}
	if err := after(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = 0, 0 // the warm-up is not part of the measurement
	res.Phases["warmup"] = secondsSince(t0)

	if err := timedReps(res, e.seconds, rep, after); err != nil {
		return nil, err
	}
	blockRounds := float64(out.blocks * monitorRounds)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d blocks x %d rounds x %d shards, SyncWAL=false, SnapshotEvery=%d", out.blocks, monitorRounds, loadShards, monitorSnapEvery),
		fmt.Sprintf("%.0f block-rounds/s, %.1f WAL bytes/block-round", blockRounds/res.Values["wall_s"].Median,
			float64(reg.Snapshot().Counter("monitor.wal_bytes"))/blockRounds))
	return res, nil
}

// timingSink is the EpochSink decorator of the traced run: it times every
// publication into the engine and notes when the first round at or past a
// given one arrives (the end of a recovery).
type timingSink struct {
	monitor.EpochSink
	publishNS   atomic.Int64
	blocks      atomic.Int64
	resumeRound int
	firstNewAt  atomic.Int64 // nanos() of the first PublishRound >= resumeRound; 0 until then
}

func (s *timingSink) PublishRound(shard, round int, deltas []monitor.RoundPub) {
	t0 := nanos()
	s.EpochSink.PublishRound(shard, round, deltas)
	t1 := nanos()
	s.publishNS.Add(t1 - t0)
	s.blocks.Add(int64(len(deltas)))
	if round >= s.resumeRound {
		s.firstNewAt.CompareAndSwap(0, t1)
	}
}

func (s *timingSink) ResyncShard(shard, nextRound int, blocks []monitor.PubBlock) {
	t0 := nanos()
	s.EpochSink.ResyncShard(shard, nextRound, blocks)
	s.publishNS.Add(nanos() - t0)
}

func traceMonitor(e env) (*result, error) {
	res := newResult()
	t0 := nanos()
	w, err := tracedWorld(nil, res, func() (*world.World, error) { return monitorWorld(e.seed) })
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("monitor-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The differential ladder. Each rung adds one thing to the rung before,
	// so the differences are that thing's cost: probe -> +WAL -> +snapshots
	// -> +publish (through the timing decorator); "bare" is the top rung
	// without the decorator, for the tracing overhead. Rungs are visited
	// round-robin so host drift lands on all of them alike.
	var probe, wal, snaps, full, bare, publish []float64
	var last struct { // the final visit's full rung
		reg   *metrics.Registry
		sink  *timingSink
		out   monitorOutcome
		dir   string
		bytes int64
	}
	ref, err := runCampaign(w, e.seed, monitorRun{}) // warm-up and reference digest
	if err != nil {
		return nil, err
	}
	want, err := ref.digest()
	if err != nil {
		return nil, err
	}
	// rung runs one campaign, notes its time and checks its study.
	rung := func(times *[]float64, r monitorRun, eng *serve.Engine) (monitorOutcome, error) {
		o, err := runCampaign(w, e.seed, r)
		if err != nil {
			return o, err
		}
		*times = append(*times, o.runS)
		return o, checkCampaign(o, eng, want)
	}
	for i := 0; i < traceMonitorReps; i++ {
		sub := func(name string) string { return filepath.Join(dir, fmt.Sprintf("%s%d", name, i)) }
		if _, err := rung(&probe, monitorRun{}, nil); err != nil {
			return nil, err
		}
		if _, err := rung(&wal, monitorRun{walDir: sub("wal"), snapEvery: monitorRounds + 1}, nil); err != nil {
			return nil, err
		}
		if _, err := rung(&snaps, monitorRun{walDir: sub("snap")}, nil); err != nil {
			return nil, err
		}
		eng := serve.NewEngine(serve.EngineConfig{})
		if _, err := rung(&bare, monitorRun{walDir: sub("bare"), sink: eng, reg: metrics.New()}, eng); err != nil {
			return nil, err
		}

		engReg, reg := metrics.New(), metrics.New()
		eng = serve.NewEngine(serve.EngineConfig{Metrics: engReg})
		sink := &timingSink{EpochSink: eng, resumeRound: monitorRounds}
		o, err := rung(&full, monitorRun{walDir: sub("full"), sink: sink, reg: reg}, eng)
		if err != nil {
			return nil, err
		}
		publish = append(publish, seconds(sink.publishNS.Load()))
		res.Attempted += monitorRounds * loadShards
		res.Failed += monitorRounds*loadShards - int(reg.Snapshot().Counter("monitor.rounds_committed"))
		last.reg, last.sink, last.out, last.dir = reg, sink, o, sub("full")
		res.set("serve.epochs_sealed", float64(engReg.Snapshot().Counter("serve.epochs_sealed")))
		if last.bytes, err = dirBytes(last.dir); err != nil {
			return nil, err
		}
		if i < traceMonitorReps-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	res.Reps = traceMonitorReps
	res.Phases["ladder"] = secondsSince(t0)
	t0 = nanos()

	blockRounds := float64(last.out.blocks * monitorRounds)
	snap := last.reg.Snapshot()
	res.set("monitor.probe_s", median(probe))
	res.set("monitor.wal_s", median(wal)-median(probe))
	res.set("monitor.snapshot_s", median(snaps)-median(wal))
	res.set("monitor.block_rounds_per_s", blockRounds/median(full))
	res.set("monitor.wal_bytes_per_block_round", float64(snap.Counter("monitor.wal_bytes"))/blockRounds)
	res.set("monitor.wal_records", float64(snap.Counter("monitor.wal_records")))
	res.set("monitor.wal_seals", float64(snap.Counter("monitor.wal_seals")))
	res.set("monitor.snapshots", float64(snap.Counter("monitor.snapshots")))
	res.set("monitor.wal_segments_deleted", float64(snap.Counter("monitor.wal_segments_deleted")))
	res.set("monitor.disk_bytes_final", float64(last.bytes))
	res.set("serve.publish_s", median(publish))
	res.set("serve.publish_ns_per_block", median(publish)*1e9/float64(last.sink.blocks.Load()))
	res.set("trace.drive_s", median(full))
	res.set("trace.overhead_frac", median(full)/median(bare)-1)
	// The rungs account for the whole of the full run by construction.
	res.set("trace.coverage_frac", 1)

	// durable.WriteFileAtomic at the size of the largest snapshot the
	// campaign left on disk.
	ms, err := writeAtomicCost(last.dir, dir)
	if err != nil {
		return nil, err
	}
	res.set("durable.write_atomic_ms", ms)

	// Recovery: kill the campaign dead halfway, then time a fresh monitor
	// over the same WAL directory from New to its first newly published round.
	var recoverS, replayed []float64
	for i := 0; i < traceMonitorReps; i++ {
		rdir := filepath.Join(dir, fmt.Sprint("recover", i))
		half := monitorRounds / 2
		if o, err := runCampaign(w, e.seed, monitorRun{walDir: rdir, haltAfter: half}); err != nil {
			return nil, err
		} else if err := check(o.res.Halted && !o.res.Completed, "halted campaign reports halted=%v completed=%v", o.res.Halted, o.res.Completed); err != nil {
			return nil, err
		}
		eng, reg := serve.NewEngine(serve.EngineConfig{}), metrics.New()
		sink := &timingSink{EpochSink: eng, resumeRound: half}
		restart := nanos()
		o, err := runCampaign(w, e.seed, monitorRun{walDir: rdir, sink: sink, reg: reg})
		if err != nil {
			return nil, err
		}
		if err := checkCampaign(o, eng, want); err != nil {
			return nil, err
		}
		recoverS = append(recoverS, float64(sink.firstNewAt.Load()-restart)/1e9)
		replayed = append(replayed, float64(reg.Snapshot().Counter("monitor.replayed_rounds")))
	}
	res.set("monitor.recover_s", median(recoverS))
	res.set("monitor.replayed_rounds", median(replayed))
	res.Phases["recover"] = secondsSince(t0)

	res.Notes = append(res.Notes,
		fmt.Sprintf("ladder medians over %d visits: probe %.3fs, +wal %.3fs, +snapshots %.3fs, +publish %.3fs (bare %.3fs)",
			traceMonitorReps, median(probe), median(wal), median(snaps), median(full), median(bare)),
		"every durable campaign's study digest equals the WAL-off campaign's")
	return res, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// writeAtomicCost times durable.WriteFileAtomic on a payload the size of
// the largest shard snapshot under walDir. It measures this sandbox's file
// system, not a storage device.
func writeAtomicCost(walDir, scratch string) (float64, error) {
	var payload []byte
	snaps, err := filepath.Glob(filepath.Join(walDir, "shard-*", "snap.json"))
	if err != nil {
		return 0, err
	}
	for _, p := range snaps {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		if len(b) > len(payload) {
			payload = b
		}
	}
	if len(payload) == 0 {
		return 0, fmt.Errorf("write-atomic cost: no snapshot found under %s", walDir)
	}
	target := filepath.Join(scratch, "write-atomic.json")
	const writes = 15
	ms := make([]float64, 0, writes)
	for i := 0; i < writes; i++ {
		t0 := nanos()
		if err := durable.WriteFileAtomic(target, payload, 0o644); err != nil {
			return 0, err
		}
		ms = append(ms, secondsSince(t0)*1e3)
	}
	return median(ms), nil
}
