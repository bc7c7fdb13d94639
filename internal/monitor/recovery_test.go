package monitor

// recovery_test.go — format 3's recovery at the edges the chaos suite does
// not reach: a campaign long enough that format 2's snapshot was refused,
// and replay through every outcome a round can log.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/trinocular"
)

// haltAt runs cfg until every shard has committed halt rounds and stops it
// dead: no drain, no snapshot, no seal.
func haltAt(t *testing.T, cfg Config, halt int) {
	t.Helper()
	cfg.HaltAfterRound = halt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background()); !errors.Is(err, ErrHalted) {
		t.Fatalf("halt at round %d: err = %v, want ErrHalted", halt, err)
	}
}

// TestLongCampaignRecovers is ROADMAP item 8's data-loss case. One small
// shard runs long enough that a format 2 snapshot — every series in full —
// would outgrow the 16 MiB frame bound, be written, and then be refused on
// recovery. Halted near its end and resumed, the campaign must reproduce
// the uninterrupted study byte for byte, from a snapshot that still costs
// under 128 bytes a block and a replay no longer than SnapshotEvery.
func TestLongCampaignRecovers(t *testing.T) {
	const blocks, rounds, every = 64, 33000, 1024
	// Format 2's last snapshot: a 16-byte header, 119 bytes a block, and 8
	// bytes a block-round of series.
	if v2 := 16 + blocks*119 + 8*blocks*rounds; v2 <= maxRecordSize {
		t.Fatalf("a format 2 snapshot of this campaign is %d bytes, inside the %d-byte bound", v2, maxRecordSize)
	}
	mk := func() Config {
		cfg := baseConfig(testNet(blocks), rounds)
		cfg.Shards = 1
		cfg.SnapshotEvery = every
		return cfg
	}
	ref := runStudy(t, mk())

	cfg := mk()
	cfg.WALDir = t.TempDir()
	haltAt(t, cfg, rounds-300)
	fi, err := os.Stat(filepath.Join(cfg.WALDir, shardDirName(0), snapName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 128*blocks {
		t.Fatalf("snapshot of %d blocks is %d bytes, over 128 a block", blocks, fi.Size())
	}

	reg := metrics.New()
	cfg.Metrics = reg
	if got := runStudy(t, cfg); !bytes.Equal(got, ref) {
		t.Fatal("recovered long campaign diverges from the uninterrupted one")
	}
	if n := reg.Snapshot().Counter("monitor.replayed_rounds"); n < 1 || n > every {
		t.Fatalf("recovery replayed %d rounds, want 1..%d", n, every)
	}
}

// outcomeNet is a small network on which every outcome a round can log
// happens: always-on and flaky hosts (positives, silence), outages whose
// gateway answers unreachable, admin-prohibited rate limiting, loss, and
// two-hourly vantage blackouts that outlast a probe's retries. The fault
// injector counts rate-limited probes per window, so every run gets a
// fresh network; testEpoch falls on a window boundary, so a window is one
// round and a fresh injector at a round boundary is the same injector.
func outcomeNet() *netsim.Network {
	net := netsim.NewNetwork(0xbeef)
	for i := 0; i < 8; i++ {
		id := netsim.MakeBlockID(10, 9, byte(i))
		blk := &netsim.Block{ID: id, Seed: uint64(id) ^ 0xbeef}
		var hosts netsim.Hosts
		for h := 1; h <= 16; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 17; h <= 40; h++ {
			hosts[h] = netsim.Intermittent{P: 0.3, Seed: uint64(id) + uint64(h)*257}
		}
		blk.SetHosts(&hosts)
		if i%2 == 1 {
			blk.Outages = []netsim.Interval{{Start: testEpoch.Add(3 * time.Hour), End: testEpoch.Add(5 * time.Hour)}}
			blk.GatewayUnreachableProb = 0.5
		}
		net.AddBlock(blk)
	}
	net.SetTap(faults.New(faults.Config{
		Seed:              9,
		LossRate:          0.1,
		RateLimitPerRound: 3,
		BlackoutEvery:     2 * time.Hour,
		BlackoutFor:       15 * time.Minute,
	}, testEpoch))
	return net
}

// TestReplayCoversEveryOutcome halts a faulty campaign three times with no
// periodic snapshot, so every resume replays each committed round from
// round 0 through the prober's round machine — cold restart rounds, and
// rounds that ended in a send error after retries, among them — and the
// completed study must equal the uninterrupted one. It then checks that
// the replayed records held every outcome kind.
func TestReplayCoversEveryOutcome(t *testing.T) {
	const rounds, lastHalt = 60, 47
	mk := func() Config {
		cfg := baseConfig(outcomeNet(), rounds)
		// One shard halts exactly where it is told to: with two, one can
		// finish the campaign before the other reaches the halt.
		cfg.Shards = 1
		cfg.SnapshotEvery = -1
		cfg.Seed = 64 // puts blocks inside the restart downtime window
		cfg.prober = trinocular.Config{
			RestartInterval: 2 * time.Hour,
			Retry:           trinocular.RetryConfig{MaxAttempts: 3},
		}
		return cfg
	}
	refCfg := mk()
	refReg := metrics.New()
	refCfg.Metrics = refReg
	ref := runStudy(t, refCfg)
	if refReg.Snapshot().Counter("trinocular.rounds_cold") == 0 {
		t.Fatal("fixture too tame: no cold restart round")
	}
	pinDigest(t, ref, "d74539ae7e015125c0935c421de74f48fbd23c0b4989f5bbc88c64caad464a9c")

	dir := t.TempDir()
	for i, halt := range []int{13, 29, lastHalt} {
		cfg := mk()
		cfg.WALDir = dir
		reg := metrics.New()
		cfg.Metrics = reg
		haltAt(t, cfg, halt)
		if i > 0 && reg.Snapshot().Counter("monitor.replayed_rounds") == 0 {
			t.Fatalf("the run halted at %d replayed nothing", halt)
		}
	}
	cfg := mk()
	cfg.WALDir = dir
	if got := runStudy(t, cfg); !bytes.Equal(got, ref) {
		t.Fatal("study replayed through three halts diverges from the uninterrupted run")
	}

	var codes [trinocular.NumOutcomes]int
	sendErrorAfterRetries := 0
	for s := 0; s < cfg.Shards; s++ {
		for _, payload := range readAll(t, filepath.Join(dir, shardDirName(s))) {
			var rec walRecord
			if err := decodeRecord(payload, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Round >= lastHalt {
				continue // not certainly replayed
			}
			for _, o := range rec.Blocks {
				for k := 0; k < o.Outcomes; k++ {
					codes[o.Log>>(4*k)&0xf]++
				}
				if o.Log>>(4*(o.Outcomes-1)) == codeSendError && o.Retries > 0 {
					sendErrorAfterRetries++
				}
			}
		}
	}
	for code, n := range codes {
		if n == 0 {
			t.Errorf("fixture too tame: no replayed round logged outcome %d", code)
		}
	}
	if sendErrorAfterRetries == 0 {
		t.Error("fixture too tame: no replayed round ended in a send error after retries")
	}
}

// TestSnapshotAheadOfLogReplaysAll: a snapshot written after the records it
// covers can outlive some of them — here the open segment's last record is
// torn after a halt that came right behind a snapshot. The log is the
// history, so recovery drops the snapshot, replays the whole log from
// round 0, re-executes the torn round, and the study still equals the
// uninterrupted one.
func TestSnapshotAheadOfLogReplaysAll(t *testing.T) {
	const rounds, every = 12, 4
	mk := func() Config {
		cfg := baseConfig(testNet(9), rounds)
		cfg.Shards = 1
		cfg.SnapshotEvery = every
		return cfg
	}
	ref := runStudy(t, mk())

	cfg := mk()
	cfg.WALDir = t.TempDir()
	haltAt(t, cfg, 2*every) // the snapshot at round 8 is written, then the halt
	segs, err := listSegments(filepath.Join(cfg.WALDir, shardDirName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].sealed {
		t.Fatalf("segments after the halt: %+v, want one open segment", segs)
	}
	if err := faults.TruncateFileTail(segs[0].path, 3); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	cfg.Metrics = reg
	if got := runStudy(t, cfg); !bytes.Equal(got, ref) {
		t.Fatal("study recovered past a torn record below the snapshot diverges")
	}
	snap := reg.Snapshot()
	if n := snap.Counter("monitor.replayed_rounds"); n != 2*every-1 {
		t.Fatalf("replayed %d rounds, want the %d the log kept", n, 2*every-1)
	}
	if snap.Counter("monitor.truncated_tails") != 1 {
		t.Fatal("the torn record was not repaired")
	}
}
