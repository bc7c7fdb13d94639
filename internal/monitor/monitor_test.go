package monitor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

var testEpoch = time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC)

// testNet builds a synthetic network of n probe-eligible blocks with mixed
// behaviours — cheaper than world.Generate for size-scaling tests, with the
// same determinism contract.
func testNet(n int) *netsim.Network {
	net := netsim.NewNetwork(0xbeef)
	for i := 0; i < n; i++ {
		id := netsim.MakeBlockID(byte(10+i/65536), byte(i/256%256), byte(i%256))
		blk := &netsim.Block{ID: id, Seed: uint64(id) ^ 0xbeef}
		var hosts netsim.Hosts
		for h := 1; h <= 20; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		// A few flappy hosts so estimates move.
		for h := 21; h <= 26; h++ {
			hosts[h] = netsim.Intermittent{P: 0.6, Seed: uint64(id) + uint64(h)*257}
		}
		blk.SetHosts(&hosts)
		net.AddBlock(blk)
	}
	return net
}

func baseConfig(net *netsim.Network, rounds int) Config {
	return Config{
		Net:    net,
		Start:  testEpoch,
		Rounds: rounds,
		Shards: 4,
		Seed:   42,
	}
}

// runStudy runs a fresh monitor to completion and returns the encoded study.
func runStudy(t *testing.T, cfg Config) []byte {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run not completed: %+v", res)
	}
	st, err := res.Study()
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pinDigest fails unless the sha256 of study is want: it pins a fixture's
// output across commits, where the in-process comparisons only pin it
// across the runs of one.
func pinDigest(t *testing.T, study []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(study)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("study digest %s, pinned %s: the monitor's output moved", got, want)
	}
}

func TestStudyDeterministicAcrossShardCounts(t *testing.T) {
	// Sharding is an execution detail: the committed study depends only on
	// (seed, blocks, schedule), so 1, 3, and 5 shards must agree bytewise —
	// in memory, and durable with one shard killed once and recovered from
	// its snapshot and its WAL.
	ref := runStudy(t, baseConfig(testNet(23), 6))
	for _, shards := range []int{1, 3, 5} {
		cfg := baseConfig(testNet(23), 6)
		cfg.Shards = shards
		if got := runStudy(t, cfg); !bytes.Equal(got, ref) {
			t.Fatalf("study with %d shards diverges from reference", shards)
		}
		cfg.WALDir = t.TempDir()
		cfg.SnapshotEvery = 2
		plan := &faults.ChaosPlan{Kills: []faults.ShardRound{{Shard: shards - 1, Round: 3}}}
		cfg.Chaos = plan
		if got := runStudy(t, cfg); !bytes.Equal(got, ref) {
			t.Fatalf("durable study with %d shards and a kill diverges from reference", shards)
		}
		if plan.Fired() != 1 {
			t.Fatalf("kill fired %d times with %d shards, want 1", plan.Fired(), shards)
		}
	}
}

func TestHaltAndResumeFromWAL(t *testing.T) {
	ref := runStudy(t, baseConfig(testNet(17), 12))

	dir := t.TempDir()
	cfg := baseConfig(testNet(17), 12)
	cfg.WALDir = dir
	cfg.SnapshotEvery = 4
	cfg.HaltAfterRound = 5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	if !res.Halted || res.Completed {
		t.Fatalf("halt result: %+v", res)
	}

	// A different campaign must be refused the WAL directory.
	bad := baseConfig(testNet(17), 12)
	bad.WALDir = dir
	bad.SnapshotEvery = 4
	bad.Seed = 43
	if _, err := New(bad); !errors.Is(err, ErrMismatch) {
		t.Fatalf("want ErrMismatch for foreign seed, got %v", err)
	}

	cfg.HaltAfterRound = 0
	reg := metrics.New()
	cfg.Metrics = reg
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Completed {
		t.Fatalf("resume not completed: %+v", res2)
	}
	snap := reg.Snapshot()
	if snap.Counter("monitor.recoveries") == 0 {
		t.Fatal("resume did not recover from WAL")
	}
	st, err := res2.Study()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("halt+resume study diverges from uninterrupted run")
	}
}

func TestResumeFromEmptyFinalSegment(t *testing.T) {
	// A crash between creating the next .open segment and writing its
	// 16-byte header leaves a zero-length husk as the final segment. It
	// carries nothing: recovery must drop it and resume from the sealed
	// history, not reject the directory or seal an undecodable file.
	ref := runStudy(t, baseConfig(testNet(17), 12))

	dir := t.TempDir()
	cfg := baseConfig(testNet(17), 12)
	cfg.WALDir = dir
	cfg.SnapshotEvery = 4
	cfg.HaltAfterRound = 5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background()); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}

	for s := 0; s < cfg.Shards; s++ {
		sd := filepath.Join(dir, shardDirName(s))
		segs, err := listSegments(sd)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 {
			t.Fatalf("shard %d halted with no segments", s)
		}
		husk := filepath.Join(sd, segName(segs[len(segs)-1].seq+1, false))
		if err := os.WriteFile(husk, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg.HaltAfterRound = 0
	reg := metrics.New()
	cfg.Metrics = reg
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("resume not completed: %+v", res)
	}
	if got := reg.Snapshot().Counter("monitor.truncated_tails"); got < int64(cfg.Shards) {
		t.Fatalf("truncated_tails = %d, want >= %d (one husk per shard)", got, cfg.Shards)
	}
	st, err := res.Study()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("resume over empty final segment diverges from uninterrupted run")
	}
	// The husks themselves must be gone, not sealed into history.
	for s := 0; s < cfg.Shards; s++ {
		segs, err := listSegments(filepath.Join(dir, shardDirName(s)))
		if err != nil {
			t.Fatal(err)
		}
		for _, sf := range segs {
			fi, err := os.Stat(sf.path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() == 0 {
				t.Fatalf("zero-length segment %s survived recovery", sf.path)
			}
		}
	}
}

// chaosWorld regenerates the same faulty world for each run: a generated
// internet plus a wire-fault injector. Loss and corruption draws are pure
// functions of (seed, dst, virtual time), so re-executed rounds redraw
// identical fates — the property crash recovery leans on.
func chaosWorld(t *testing.T) *netsim.Network {
	t.Helper()
	w, err := world.Generate(world.Config{Blocks: 40, Seed: 0x5eed, OutagesPerBlockWeek: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Net.SetTap(faults.New(faults.Config{
		Seed:        0xfa17,
		LossRate:    0.02,
		CorruptRate: 0.01,
	}, time.Time{}))
	return w.Net
}

// TestChaosEquivalence is the harness's headline property and the CI gate:
// a fixed-seed run that suffers three injected shard kills, a hard process
// halt, and WAL tail corruption must — after recovery — produce a study
// byte-identical to an uninterrupted run of the same seed.
func TestChaosEquivalence(t *testing.T) {
	const rounds = 16
	mkCfg := func(net *netsim.Network) Config {
		cfg := baseConfig(net, rounds)
		cfg.Shards = 4
		cfg.SnapshotEvery = 5
		return cfg
	}
	ref := runStudy(t, mkCfg(chaosWorld(t)))
	pinDigest(t, ref, "617ee245a6ad56b4660a8c2d7f4db796e31acd7b50f9693ada0a80205c79c3a3")

	dir := t.TempDir()
	cfg := mkCfg(chaosWorld(t))
	cfg.WALDir = dir
	cfg.HaltAfterRound = 11
	plan := &faults.ChaosPlan{
		Kills: []faults.ShardRound{{Shard: 0, Round: 3}, {Shard: 1, Round: 7}, {Shard: 2, Round: 9}},
	}
	cfg.Chaos = plan
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	if res.Restarts < 3 {
		t.Fatalf("restarts = %d, want >= 3 (one per injected kill)", res.Restarts)
	}
	if plan.Fired() != 3 {
		t.Fatalf("chaos events fired = %d, want 3", plan.Fired())
	}

	// Damage the abandoned open WAL tails the way a power cut would;
	// recovery must truncate and re-execute the lost rounds. (A shard that
	// finished all its rounds before the halt landed has already sealed —
	// at least the halt-triggering shard is guaranteed to leave one open.)
	corrupted := 0
	for shard := 0; shard < 4; shard++ {
		segs, err := listSegments(filepath.Join(dir, shardDirName(shard)))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 {
			t.Fatalf("shard %d has no segments after halt", shard)
		}
		last := segs[len(segs)-1]
		if last.sealed {
			continue
		}
		if err := faults.CorruptFileTail(last.path, 4); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("halt left no open segment to corrupt")
	}

	cfg2 := mkCfg(chaosWorld(t))
	cfg2.WALDir = dir
	reg := metrics.New()
	cfg2.Metrics = reg
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Completed {
		t.Fatalf("recovery run not completed: %+v", res2)
	}
	snap := reg.Snapshot()
	if snap.Counter("monitor.truncated_tails") == 0 {
		t.Fatal("no truncated tail repaired despite injected corruption")
	}
	if snap.Counter("monitor.recoveries") == 0 {
		t.Fatal("recovery run replayed nothing")
	}
	st, err := res2.Study()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("crash-recovered study diverges from uninterrupted run")
	}
}

func TestWatchdogAbortsStalledShard(t *testing.T) {
	const rounds = 8
	ref := runStudy(t, baseConfig(testNet(13), rounds))

	tick := make(chan time.Time)
	cfg := baseConfig(testNet(13), rounds)
	cfg.WALDir = t.TempDir()
	cfg.SnapshotEvery = 3
	cfg.Chaos = &faults.ChaosPlan{Stalls: []faults.ShardRound{{Shard: 0, Round: 2}}}
	cfg.WatchdogTick = tick
	reg := metrics.New()
	cfg.Metrics = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Long against the burst of ticks sent into the restart gap below.
	m.backoffBase = 50 * time.Millisecond

	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = m.Run(context.Background())
	}()
	// The ticks follow the run's events, not the wall clock, so the test
	// holds however slowly the shards are scheduled. await polls the
	// monitor's state; sendTick returns once the watchdog has taken the
	// tick, which is also when it has finished with the one before.
	await := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			select {
			case <-done:
				t.Fatalf("run ended waiting for %s: %v", what, runErr)
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	sendTick := func() {
		t.Helper()
		select {
		case tick <- time.Time{}:
		case <-done:
			t.Fatalf("run ended with ticks still to send: %v", runErr)
		}
	}
	// Time stands still until the healthy shards are through and shard 0
	// has reached its stall at round 2; then it passes until the watchdog
	// has aborted the stalled attempt.
	await("the healthy shards to finish and shard 0 to stall", func() bool {
		for _, s := range m.shards[1:] {
			if !s.done.Load() {
				return false
			}
		}
		return m.shards[0].committed.Load() == 2
	})
	aborts := reg.Counter("monitor.watchdog_aborts")
	for aborts.Value() == 0 {
		sendTick()
	}
	// The abort worked once the attempt has exited. While the supervisor
	// backs off, more ticks pass than a wedge verdict takes; none of them
	// may count against the shard, which restarts from its WAL and
	// completes (the stall fires only on the first attempt).
	restarts := reg.Counter("monitor.shard_restarts")
	await("the aborted attempt to exit", func() bool { return restarts.Value() == 1 })
	for i := 0; i < 3*watchdogStrikes; i++ {
		sendTick()
	}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !res.Completed {
		t.Fatalf("run not completed: %+v", res)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want the stalled shard's one", res.Restarts)
	}
	if n := aborts.Value(); n != 1 {
		t.Fatalf("watchdog aborts = %d, want 1", n)
	}
	st, err := res.Study()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("watchdog-recovered study diverges from reference")
	}
}

func TestWatchdogEscalatesHardWedgeToFatal(t *testing.T) {
	tick := make(chan time.Time)
	cfg := baseConfig(testNet(9), 50)
	cfg.Chaos = &faults.ChaosPlan{HardStalls: []faults.ShardRound{{Shard: 0, Round: 1}}}
	cfg.WatchdogTick = tick
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = m.Run(context.Background())
	}()
	for {
		select {
		case tick <- time.Time{}:
			time.Sleep(time.Millisecond)
			continue
		case <-done:
		}
		break
	}
	if !errors.Is(runErr, ErrWatchdog) {
		t.Fatalf("want ErrWatchdog, got %v", runErr)
	}
}

func TestCrashLoopQuarantineAndQuorum(t *testing.T) {
	// Without a WAL a restart re-executes from round 0, so a kill scheduled
	// at each successive round fires once per attempt: a crash loop that
	// outlasts maxRestarts.
	const rounds = maxRestarts + 2
	kills := make([]faults.ShardRound, 0, rounds)
	for r := 0; r < rounds; r++ {
		kills = append(kills, faults.ShardRound{Shard: 0, Round: r})
	}

	// Two shards: one quarantined of two is not past the 0.5 quorum.
	cfg := baseConfig(testNet(8), rounds)
	cfg.Shards = 2
	cfg.Chaos = &faults.ChaosPlan{Kills: kills}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("sub-quorum quarantine must not be fatal: %v", err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != 0 {
		t.Fatalf("quarantined = %v, want [0]", res.Quarantined)
	}
	if res.Completed {
		t.Fatal("run with a quarantined shard cannot be complete")
	}
	if _, err := res.Study(); err == nil {
		t.Fatal("study must be unavailable for an incomplete run")
	}

	// One shard: its quarantine exceeds any quorum and kills the monitor.
	cfg2 := baseConfig(testNet(8), rounds)
	cfg2.Shards = 1
	cfg2.Chaos = &faults.ChaosPlan{Kills: kills}
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(context.Background()); !errors.Is(err, ErrQuarantine) {
		t.Fatalf("want ErrQuarantine, got %v", err)
	}
}

func TestGracefulDrainAndResume(t *testing.T) {
	ref := runStudy(t, baseConfig(testNet(15), 14))

	dir := t.TempDir()
	cfg := baseConfig(testNet(15), 14)
	cfg.WALDir = dir
	cfg.SnapshotEvery = 4
	reg := metrics.New()
	cfg.Metrics = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = m.Run(ctx)
	}()
	// Cancel mid-campaign, once some rounds are committed.
	for reg.Snapshot().Counter("monitor.rounds_committed") < 8 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	<-done
	if runErr != nil {
		t.Fatalf("graceful drain returned %v", runErr)
	}
	if res.Halted {
		t.Fatalf("drain misreported as halt: %+v", res)
	}
	if res.Completed {
		// The cancel raced completion — legal but pointless for this test.
		t.Skip("run completed before cancellation landed")
	}
	if !res.Drained {
		t.Fatalf("drain result: %+v", res)
	}
	// Every shard sealed its WAL on the way out: no .open segments remain.
	for i := 0; i < m.NumShards(); i++ {
		segs, err := listSegments(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, sf := range segs {
			if !sf.sealed {
				t.Fatalf("shard %d left unsealed segment %s after drain", i, sf.path)
			}
		}
	}

	cfg2 := baseConfig(testNet(15), 14)
	cfg2.WALDir = dir
	cfg2.SnapshotEvery = 4
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run(context.Background())
	if err != nil || !res2.Completed {
		t.Fatalf("resume after drain: err=%v res=%+v", err, res2)
	}
	st, err := res2.Study()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("drain+resume study diverges from uninterrupted run")
	}
}
