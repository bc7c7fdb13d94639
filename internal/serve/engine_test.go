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

// shardFeed drives one shard of an engine from per-block series through the
// EpochSink contract, keeping a Replayer per block fed the same values — the
// per-block reference the shard-shared basis sums must reproduce.
type shardFeed struct {
	shard  int
	first  int // the shard's first block, as an index into the epoch
	ids    []netsim.BlockID
	series func(b, r int) float64 // b indexes the shard's blocks
	sent   [][]float64
	ref    []*Replayer
	deltas []monitor.RoundPub
}

func newShardFeed(info monitor.RunInfo, shard, first, blocks int, series func(b, r int) float64) *shardFeed {
	f := &shardFeed{
		shard: shard, first: first, series: series,
		ids:    make([]netsim.BlockID, blocks),
		sent:   make([][]float64, blocks),
		ref:    make([]*Replayer, blocks),
		deltas: make([]monitor.RoundPub, blocks),
	}
	for b := range f.ids {
		f.ids[b] = netsim.MakeBlockID(10, 0, byte(first+b))
		f.sent[b] = make([]float64, 0, info.Rounds) // publish never grows it
		f.ref[b] = NewReplayer(info.Start, info.Period, 0)
	}
	return f
}

// publish sends the shard's next round.
func (f *shardFeed) publish(e *Engine) {
	r := len(f.sent[0])
	for b := range f.deltas {
		v := f.series(b, r)
		f.sent[b] = append(f.sent[b], v)
		f.ref[b].Push(v)
		f.deltas[b] = monitor.RoundPub{Avail: v, Long: v}
	}
	e.PublishRound(f.shard, r, f.deltas)
}

// resync re-publishes everything sent so far, as a restarted shard does.
func (f *shardFeed) resync(e *Engine) {
	pub := make([]monitor.PubBlock, len(f.ids))
	for b := range pub {
		pub[b] = monitor.PubBlock{ID: f.ids[b], Short: f.sent[b]}
		if n := len(f.sent[b]); n > 0 {
			pub[b].Long = f.sent[b][n-1]
		}
	}
	e.ResyncShard(f.shard, len(f.sent[0]), pub)
}

// matchesReplayers compares the epoch's rows for the feed's blocks, column
// bits and served peak/sleep bits, with the per-block replayers.
func (f *shardFeed) matchesReplayers(t *testing.T, ep *Epoch) {
	t.Helper()
	for b, rp := range f.ref {
		i := f.first + b
		class, phase := rp.Classify()
		diurnal := class == ClassStrict || class == ClassRelaxed
		if !diurnal {
			phase = 0
		}
		if ep.class[i] != class || math.Float64bits(ep.phase[i]) != math.Float64bits(phase) {
			t.Fatalf("epoch %d block %v: class %v phase %v, replayer says %v %v",
				ep.Rounds, ep.ids[i], ep.class[i], ep.phase[i], class, phase)
		}
		bs, ok := ep.Lookup(f.ids[b])
		if !ok || (bs.PeakUTCHour != nil) != diurnal {
			t.Fatalf("epoch %d block %v: lookup ok=%v peak=%v, diurnal=%v", ep.Rounds, f.ids[b], ok, bs.PeakUTCHour, diurnal)
		}
		if diurnal {
			peak, sleep := rp.PeakSleepUTC()
			if math.Float64bits(*bs.PeakUTCHour) != math.Float64bits(peak) ||
				math.Float64bits(*bs.SleepUTCHour) != math.Float64bits(sleep) {
				t.Fatalf("epoch %d block %v: served peak/sleep %v/%v, replayer %v/%v",
					ep.Rounds, f.ids[b], *bs.PeakUTCHour, *bs.SleepUTCHour, peak, sleep)
			}
		}
	}
}

// TestEngineShardsMatchPerBlockReplay: each shard carries one copy of the
// basis sums and classifies its own blocks as it publishes. Three shards
// driven out of step — one two rounds ahead, one resynced mid-way — must
// seal, at every epoch, exactly what a per-block Replayer fed the same
// series answers: class, phase bits and the served peak/sleep bits.
func TestEngineShardsMatchPerBlockReplay(t *testing.T) {
	const rounds, perShard = 80, 4
	info := monitor.RunInfo{
		Shards: 3, Rounds: rounds, Blocks: 3 * perShard,
		Start:  time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC),
		Period: time.Hour, Seed: 1,
	}
	series := func(shard int) func(b, r int) float64 {
		return func(b, r int) float64 {
			switch b {
			case 0: // diurnal, a different peak hour in every shard
				return 0.5 + 0.4*math.Cos(2*math.Pi*(float64(r)-float64(5*shard))/24)
			case 1: // flat
				return 0.7
			case 2: // a ramp: variance, no daily period
				return float64(r) / rounds
			default: // diurnal with a strong first harmonic: relaxed at best
				x := 2 * math.Pi * float64(r) / 24
				return 0.5 + 0.2*math.Cos(x) + 0.2*math.Cos(2*x+float64(shard))
			}
		}
	}
	e := NewEngine(EngineConfig{})
	e.BeginRun(info)
	feeds := make([]*shardFeed, info.Shards)
	for s := range feeds {
		feeds[s] = newShardFeed(info, s, s*perShard, perShard, series(s))
		feeds[s].resync(e)
	}
	feeds[0].publish(e)
	feeds[0].publish(e)
	seen := map[DiurnalClass]bool{}
	for r := 0; r < rounds; r++ {
		if r+2 < rounds {
			feeds[0].publish(e)
		}
		if r == rounds/2 {
			feeds[2].resync(e)
		}
		feeds[1].publish(e)
		feeds[2].publish(e)
		ep := e.Epoch()
		if ep == nil || ep.Rounds != r+1 {
			t.Fatalf("after round %d the epoch is %+v", r, ep)
		}
		for _, f := range feeds {
			f.matchesReplayers(t, ep)
		}
		for _, c := range ep.class {
			seen[c] = true
		}
	}
	for _, c := range []DiurnalClass{ClassUnknown, ClassNonDiurnal, ClassRelaxed, ClassStrict} {
		if !seen[c] {
			t.Errorf("no block was ever %v: the fixture no longer covers that class", c)
		}
	}
}

// TestEngineResyncAcrossClassChange is the stale-phase trap: a block that is
// diurnal, then not, then diurnal again, with a resync while it is not. The
// resynced mirror starts from zeroed columns; the twin that never resynced
// must have written phase 0 when the block left the diurnal classes, or the
// two epochs differ in a column nobody serves.
func TestEngineResyncAcrossClassChange(t *testing.T) {
	const stage = 48
	info := monitor.RunInfo{
		Shards: 1, Rounds: 3 * stage, Blocks: 1,
		Start: testEpoch, Period: time.Hour, Seed: 1,
	}
	series := func(_, r int) float64 {
		wave := math.Cos(2 * math.Pi * (float64(r) - 8) / 24)
		switch r / stage {
		case 0:
			return 0.5 + 0.05*wave
		case 1: // round-to-round flapping swamps the earlier daily wave
			return 0.4 + 0.2*float64(r%2)
		default:
			return 0.5 + 0.4*wave
		}
	}
	plain, resynced := NewEngine(EngineConfig{}), NewEngine(EngineConfig{})
	fp, fr := newShardFeed(info, 0, 0, 1, series), newShardFeed(info, 0, 0, 1, series)
	plain.BeginRun(info)
	resynced.BeginRun(info)
	fp.resync(plain)
	fr.resync(resynced)
	wantDiurnal := []bool{true, false, true}
	for r := 0; r < 3*stage; r++ {
		fp.publish(plain)
		fr.publish(resynced)
		if r == 2*stage-1 {
			fr.resync(resynced)
		}
		ep := plain.Epoch()
		epochsIdentical(t, ep, resynced.Epoch())
		c := ep.class[0]
		if got := c == ClassStrict || c == ClassRelaxed; (r+1)%stage == 0 && got != wantDiurnal[r/stage] {
			t.Fatalf("round %d: class %v, want diurnal=%v", r, c, wantDiurnal[r/stage])
		}
	}
}

// TestPublishRoundAllocs: a publish that seals nothing allocates nothing —
// classification included — and one that seals allocates the epoch and its
// seven columns, no transient copy of anything else.
func TestPublishRoundAllocs(t *testing.T) {
	const blocks, runs = 64, 50
	info := monitor.RunInfo{
		Shards: 2, Rounds: 4 * runs, Blocks: 2 * blocks,
		Start: testEpoch, Period: time.Hour, Seed: 1,
	}
	series := func(b, r int) float64 { return 0.5 + 0.4*math.Cos(2*math.Pi*float64(r+b)/24) }
	e := NewEngine(EngineConfig{MinClassifyRounds: 1})
	e.BeginRun(info)
	ahead, floor := newShardFeed(info, 0, 0, blocks, series), newShardFeed(info, 1, blocks, blocks, series)
	ahead.resync(e)
	floor.resync(e)
	ahead.publish(e)
	floor.publish(e)
	sealed := e.Epoch().Rounds
	if got := testing.AllocsPerRun(runs, func() { ahead.publish(e) }); got != 0 {
		t.Errorf("a publish that seals nothing allocates %.0f times, want 0", got)
	}
	if e.Epoch().Rounds != sealed {
		t.Fatalf("the shard ahead of the floor sealed an epoch (%d → %d)", sealed, e.Epoch().Rounds)
	}
	const epochAllocs = 8 // the Epoch and its seven columns
	if got := testing.AllocsPerRun(runs, func() { floor.publish(e) }); got != epochAllocs {
		t.Errorf("a publish that seals allocates %.0f times, want %d", got, epochAllocs)
	}
	if e.Epoch().Rounds != sealed+runs+1 {
		t.Fatalf("the floor shard's publishes sealed up to %d, want %d", e.Epoch().Rounds, sealed+runs+1)
	}
}

// TestResyncRejectsRaggedSeries: a shard has one round count, so a resync
// whose blocks do not all carry nextRound values is a contract violation —
// counted, and the mirror left as it was.
func TestResyncRejectsRaggedSeries(t *testing.T) {
	reg := metrics.New()
	e := NewEngine(EngineConfig{Metrics: reg, MinClassifyRounds: 1})
	drive(e, 2, 3, time.Hour, func(b, r int) float64 { return float64(b) + float64(r)/10 })
	before := e.Epoch()

	id := func(i int) netsim.BlockID { return netsim.MakeBlockID(10, 0, byte(i)) }
	for name, blocks := range map[string][]monitor.PubBlock{
		"short": {{ID: id(0), Short: []float64{9, 9, 9, 9}}, {ID: id(1), Short: []float64{9, 9, 9}}},
		"long":  {{ID: id(0), Short: []float64{9, 9, 9, 9}}, {ID: id(1), Short: []float64{9, 9, 9, 9, 9}}},
	} {
		ignored := reg.Snapshot().Counter("serve.publish_ignored")
		e.ResyncShard(0, 4, blocks)
		if got := reg.Snapshot().Counter("serve.publish_ignored"); got != ignored+1 {
			t.Errorf("%s series: publish_ignored went %d → %d, want one more", name, ignored, got)
		}
		if e.Epoch() != before {
			t.Errorf("%s series: the rejected resync sealed an epoch", name)
		}
	}
	// The mirror is untouched: the shard's next round still applies.
	e.PublishRound(0, 3, []monitor.RoundPub{{Avail: 1}, {Avail: 2}})
	if ep := e.Epoch(); ep.Rounds != 4 || ep.avail[1] != 2 {
		t.Fatalf("after the rejected resyncs, round 3 left epoch %d avail %v", ep.Rounds, ep.avail)
	}
}
