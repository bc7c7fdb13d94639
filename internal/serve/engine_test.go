package serve

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

var testEpoch = time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC)

// testNet mirrors the monitor tests' synthetic network: n probe-eligible
// blocks with a few flappy hosts so estimates move.
func testNet(n int) *netsim.Network {
	net := netsim.NewNetwork(0xbeef)
	for i := 0; i < n; i++ {
		id := netsim.MakeBlockID(byte(10+i/65536), byte(i/256%256), byte(i%256))
		blk := &netsim.Block{ID: id, Seed: uint64(id) ^ 0xbeef}
		var hosts netsim.Hosts
		for h := 1; h <= 20; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 21; h <= 26; h++ {
			hosts[h] = netsim.Intermittent{P: 0.6, Seed: uint64(id) + uint64(h)*257}
		}
		blk.SetHosts(&hosts)
		net.AddBlock(blk)
	}
	return net
}

func baseConfig(net *netsim.Network, rounds int) monitor.Config {
	return monitor.Config{
		Net:         net,
		Start:       testEpoch,
		Rounds:      rounds,
		Shards:      4,
		Seed:        42,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
}

// drive feeds an engine directly through the EpochSink contract: one shard,
// `blocks` blocks, `rounds` rounds of series(block, round) availabilities.
func drive(e *Engine, blocks, rounds int, period time.Duration, series func(b, r int) float64) {
	e.BeginRun(monitor.RunInfo{
		Shards: 1, Rounds: rounds, Blocks: blocks,
		Start: testEpoch, Period: period, Seed: 1,
	})
	pub := make([]monitor.PubBlock, blocks)
	for i := range pub {
		pub[i] = monitor.PubBlock{ID: netsim.MakeBlockID(10, 0, byte(i))}
	}
	e.ResyncShard(0, 0, pub)
	deltas := make([]monitor.RoundPub, blocks)
	for r := 0; r < rounds; r++ {
		for i := range deltas {
			v := series(i, r)
			deltas[i] = monitor.RoundPub{Avail: v, Long: v}
		}
		e.PublishRound(0, r, deltas)
	}
}

func TestEngineSealsFromLiveMonitor(t *testing.T) {
	reg := metrics.New()
	eng := NewEngine(EngineConfig{Metrics: reg, MinClassifyRounds: 1})
	cfg := baseConfig(testNet(23), 6)
	cfg.Sink = eng
	m, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil || !res.Completed {
		t.Fatalf("run: err=%v res=%+v", err, res)
	}

	ep := eng.Epoch()
	if ep == nil {
		t.Fatal("no epoch sealed after a completed run")
	}
	if ep.Rounds != 6 || ep.TotalRounds != 6 {
		t.Fatalf("epoch rounds = %d/%d, want 6/6", ep.Rounds, ep.TotalRounds)
	}
	if ep.Len() != 23 {
		t.Fatalf("epoch has %d blocks, want 23", ep.Len())
	}
	if want := testEpoch.Add(5 * 660 * time.Second); !ep.Time.Equal(want) {
		t.Fatalf("epoch time = %v, want %v", ep.Time, want)
	}

	st := eng.Status()
	if !st.Ready || st.Epoch != 6 || st.StaleRounds != 0 || st.Degraded {
		t.Fatalf("status = %+v", st)
	}

	if _, ok := ep.Lookup(netsim.MakeBlockID(10, 0, 0)); !ok {
		t.Fatal("known block missing from epoch")
	}
	if _, ok := ep.Lookup(netsim.MakeBlockID(99, 99, 99)); ok {
		t.Fatal("lookup of absent block succeeded")
	}

	snap := reg.Snapshot()
	if snap.Counter("serve.epochs_sealed") < 6 {
		t.Fatalf("epochs_sealed = %d, want >= 6", snap.Counter("serve.epochs_sealed"))
	}
	if snap.Counter("serve.resyncs") < 4 {
		t.Fatalf("resyncs = %d, want >= 4 (one per shard)", snap.Counter("serve.resyncs"))
	}
}

// epochsIdentical compares two epochs column by column, bit-exact on floats.
func epochsIdentical(t *testing.T, a, b *Epoch) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Len() != b.Len() {
		t.Fatalf("shape: %d rounds/%d blocks vs %d rounds/%d blocks",
			a.Rounds, a.Len(), b.Rounds, b.Len())
	}
	for i := range a.ids {
		switch {
		case a.ids[i] != b.ids[i]:
			t.Fatalf("block %d: id %v vs %v", i, a.ids[i], b.ids[i])
		case math.Float64bits(a.avail[i]) != math.Float64bits(b.avail[i]):
			t.Fatalf("block %v: avail %v vs %v", a.ids[i], a.avail[i], b.avail[i])
		case math.Float64bits(a.long[i]) != math.Float64bits(b.long[i]):
			t.Fatalf("block %v: long %v vs %v", a.ids[i], a.long[i], b.long[i])
		case a.down[i] != b.down[i]:
			t.Fatalf("block %v: down %v vs %v", a.ids[i], a.down[i], b.down[i])
		case a.failed[i] != b.failed[i]:
			t.Fatalf("block %v: failed %d vs %d", a.ids[i], a.failed[i], b.failed[i])
		case a.class[i] != b.class[i]:
			t.Fatalf("block %v: class %v vs %v", a.ids[i], a.class[i], b.class[i])
		case math.Float64bits(a.phase[i]) != math.Float64bits(b.phase[i]):
			t.Fatalf("block %v: phase %v vs %v", a.ids[i], a.phase[i], b.phase[i])
		}
	}
}

// chaosWorld mirrors the monitor chaos tests: a generated internet with
// deterministic wire faults.
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
	}))
	return w.Net
}

// TestEngineCrashEquivalence pins the serving-layer analogue of the
// monitor's headline property: an engine fed by a crash-looping, halted,
// WAL-recovered monitor ends bit-identical to one fed by an uninterrupted
// run. The resync path rebuilds spectral accumulators with the exact float
// operation order of incremental publication, so even the DFT phases match
// to the last bit.
func TestEngineCrashEquivalence(t *testing.T) {
	const rounds = 16
	mkCfg := func(net *netsim.Network, sink monitor.EpochSink) monitor.Config {
		cfg := baseConfig(net, rounds)
		cfg.SnapshotEvery = 5
		cfg.Sink = sink
		return cfg
	}

	clean := NewEngine(EngineConfig{MinClassifyRounds: 4})
	m, err := monitor.New(mkCfg(chaosWorld(t), clean))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Run(context.Background()); err != nil || !res.Completed {
		t.Fatalf("clean run: err=%v res=%+v", err, res)
	}

	// Chaotic twin: three injected shard kills, a hard halt, then a resume
	// over the WAL — the same engine sees kills' resyncs mid-run and the
	// resume's recovery resyncs across monitor instances.
	dir := t.TempDir()
	eng := NewEngine(EngineConfig{MinClassifyRounds: 4})
	cfg := mkCfg(chaosWorld(t), eng)
	cfg.WALDir = dir
	cfg.HaltAfterRound = 11
	cfg.Chaos = &faults.ChaosPlan{
		Kills: []faults.ShardRound{{Shard: 0, Round: 3}, {Shard: 1, Round: 7}, {Shard: 2, Round: 9}},
	}
	m2, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(context.Background()); !errors.Is(err, monitor.ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	if ep := eng.Epoch(); ep == nil || ep.Rounds >= rounds {
		t.Fatalf("halted engine epoch = %+v, want partial", ep)
	}

	cfg2 := mkCfg(chaosWorld(t), eng)
	cfg2.WALDir = dir
	m3, err := monitor.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m3.Run(context.Background()); err != nil || !res.Completed {
		t.Fatalf("resume run: err=%v res=%+v", err, res)
	}

	epochsIdentical(t, clean.Epoch(), eng.Epoch())
}

func TestEngineCopyOnWriteIsolation(t *testing.T) {
	reg := metrics.New()
	e := NewEngine(EngineConfig{Metrics: reg, MinClassifyRounds: 1})
	drive(e, 3, 2, time.Hour, func(b, r int) float64 { return float64(b) + float64(r)/10 })

	old := e.Epoch()
	if old == nil || old.Rounds != 2 {
		t.Fatalf("epoch after 2 rounds: %+v", old)
	}
	oldAvail := old.avail[1]

	// Two more rounds: a frozen reader's epoch must not move underneath it.
	deltas := []monitor.RoundPub{{Avail: 9}, {Avail: 9}, {Avail: 9}}
	e.PublishRound(0, 2, deltas)
	e.PublishRound(0, 3, deltas)

	if old.Rounds != 2 || old.avail[1] != oldAvail {
		t.Fatal("sealed epoch mutated by later publishes")
	}
	cur := e.Epoch()
	if cur.Rounds != 4 || cur.avail[1] != 9 {
		t.Fatalf("current epoch = %d rounds avail=%v, want 4 rounds avail=9", cur.Rounds, cur.avail[1])
	}

	// A replayed round must be dropped, not corrupt state.
	e.PublishRound(0, 2, deltas)
	if got := e.Epoch(); got.Rounds != 4 {
		t.Fatalf("replayed round advanced the epoch to %d", got.Rounds)
	}
	if reg.Snapshot().Counter("serve.publish_ignored") == 0 {
		t.Fatal("replayed round was not counted as ignored")
	}
}

func TestStreamingClassifier(t *testing.T) {
	// One-hour rounds, three virtual days. Block 0: clean diurnal sinusoid
	// peaking at hour 8. Block 1: flat. Block 2: a ramp — variance without
	// daily periodicity.
	e := NewEngine(EngineConfig{}) // default minClassify = 24 rounds = 1 day
	drive(e, 3, 72, time.Hour, func(b, r int) float64 {
		switch b {
		case 0:
			return 0.5 + 0.4*math.Cos(2*math.Pi*(float64(r)-8)/24)
		case 1:
			return 0.7
		default:
			return float64(r) / 72
		}
	})
	ep := e.Epoch()
	if ep == nil {
		t.Fatal("no epoch")
	}

	s0, _ := ep.Lookup(netsim.MakeBlockID(10, 0, 0))
	if s0.Class != "strict" {
		t.Fatalf("sinusoid classified %q, want strict", s0.Class)
	}
	if s0.PeakUTCHour == nil || math.Abs(*s0.PeakUTCHour-8) > 0.2 {
		t.Fatalf("peak hour = %v, want ~8", s0.PeakUTCHour)
	}
	if s0.SleepUTCHour == nil || math.Abs(*s0.SleepUTCHour-20) > 0.2 {
		t.Fatalf("sleep hour = %v, want ~20", s0.SleepUTCHour)
	}

	s1, _ := ep.Lookup(netsim.MakeBlockID(10, 0, 1))
	if s1.Class != "non-diurnal" {
		t.Fatalf("flat block classified %q, want non-diurnal", s1.Class)
	}
	if s1.PeakUTCHour != nil {
		t.Fatal("non-diurnal block carries a peak hour")
	}

	s2, _ := ep.Lookup(netsim.MakeBlockID(10, 0, 2))
	if s2.Class == "strict" {
		t.Fatal("ramp classified strict")
	}

	// Below the classification floor everything is unknown.
	young := NewEngine(EngineConfig{})
	drive(young, 1, 10, time.Hour, func(b, r int) float64 { return 0.5 })
	sy, _ := young.Epoch().Lookup(netsim.MakeBlockID(10, 0, 0))
	if sy.Class != "unknown" {
		t.Fatalf("10-round block classified %q, want unknown", sy.Class)
	}
}

// TestEngineDegradedOnQuarantine: a crash-looping shard quarantines; the
// engine keeps serving the surviving shards' progress and reports degraded.
func TestEngineDegradedOnQuarantine(t *testing.T) {
	kills := make([]faults.ShardRound, 0, 8)
	for r := 0; r < 8; r++ {
		kills = append(kills, faults.ShardRound{Shard: 0, Round: r})
	}
	eng := NewEngine(EngineConfig{MinClassifyRounds: 1})
	cfg := baseConfig(testNet(8), 4)
	cfg.Shards = 2
	cfg.MaxRestarts = 3
	cfg.Chaos = &faults.ChaosPlan{Kills: kills}
	cfg.Sink = eng
	m, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want one shard", res.Quarantined)
	}

	st := eng.Status()
	if !st.Degraded {
		t.Fatal("engine not degraded after quarantine")
	}
	if !st.Ready {
		t.Fatal("engine must keep serving the surviving shard's epoch")
	}
	ep := eng.Epoch()
	if ep.Rounds != 4 {
		t.Fatalf("epoch floor = %d, want the surviving shard's 4", ep.Rounds)
	}
	if ep.Len() != 8 {
		t.Fatalf("epoch len = %d, want all 8 blocks (quarantined shard frozen)", ep.Len())
	}
}
