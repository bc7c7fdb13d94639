package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
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
		Net:    net,
		Start:  testEpoch,
		Rounds: rounds,
		Shards: 4,
		Seed:   42,
	}
}

// avail is a round's publication of availability v and nothing else: an
// unknown block.
func avail(v float64) monitor.RoundPub { return monitor.RoundPub{Avail: v, Long: v} }

// drive feeds an engine directly through the EpochSink contract: one shard,
// `blocks` blocks, `rounds` rounds of series(block, round) publications.
func drive(e *Engine, blocks, rounds int, period time.Duration, series func(b, r int) monitor.RoundPub) {
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
			deltas[i] = series(i, r)
		}
		e.PublishRound(0, r, deltas)
	}
}

func TestEngineSealsFromLiveMonitor(t *testing.T) {
	reg := metrics.New()
	eng := NewEngine(EngineConfig{Metrics: reg})
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

// epochCols is an epoch's column sets concatenated in global block order.
type epochCols struct {
	ids    []netsim.BlockID
	avail  []float64
	long   []float64
	down   []bool
	failed []int32
	class  []monitor.Class
	phase  []float64
}

// cols flattens ep's segments, so tests read block i's columns by its index
// in the epoch.
func cols(ep *Epoch) epochCols {
	var c epochCols
	for _, s := range ep.segs {
		c.ids = append(c.ids, s.ids...)
		c.avail = append(c.avail, s.avail...)
		c.long = append(c.long, s.long...)
		c.down = append(c.down, s.down...)
		c.failed = append(c.failed, s.failed...)
		c.class = append(c.class, s.class...)
		c.phase = append(c.phase, s.phase...)
	}
	return c
}

// epochsIdentical compares two epochs column by column, bit-exact on floats.
func epochsIdentical(t *testing.T, x, y *Epoch) {
	t.Helper()
	if x.Rounds != y.Rounds || x.Len() != y.Len() {
		t.Fatalf("shape: %d rounds/%d blocks vs %d rounds/%d blocks",
			x.Rounds, x.Len(), y.Rounds, y.Len())
	}
	a, b := cols(x), cols(y)
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
	}, time.Time{}))
	return w.Net
}

// setKey names the column set a shard installs at a committed round count.
type setKey struct{ shard, rounds int }

// verdicts is the class and phase columns of one column set.
type verdicts struct {
	ids   []netsim.BlockID
	class []monitor.Class
	phase []float64
}

// setLog is an EpochSink in front of an engine. After every publish and
// resync it copies the class and phase columns of the set the call
// installed, by shard and committed-round count; it serializes the calls, so
// the set it reads is the one the call installed. A second set at a count
// already logged (a resync after a crash) must carry the same bits.
type setLog struct {
	*Engine
	mu       sync.Mutex
	sets     map[setKey]verdicts
	mismatch []setKey // counts logged twice with different bits
}

func newSetLog(e *Engine) *setLog { return &setLog{Engine: e, sets: map[setKey]verdicts{}} }

func (l *setLog) PublishRound(shard, round int, deltas []monitor.RoundPub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Engine.PublishRound(shard, round, deltas)
	l.note(shard)
}

func (l *setLog) ResyncShard(shard, nextRound int, blocks []monitor.PubBlock) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Engine.ResyncShard(shard, nextRound, blocks)
	l.note(shard)
}

func (l *setLog) note(shard int) {
	l.Engine.mu.Lock()
	defer l.Engine.mu.Unlock()
	if shard < 0 || shard >= len(l.shards) || l.shards[shard].cur == nil {
		return
	}
	cur := l.shards[shard].cur
	v := verdicts{ids: cur.ids, class: slices.Clone(cur.class), phase: slices.Clone(cur.phase)}
	k := setKey{shard, cur.rounds}
	if old, ok := l.sets[k]; ok && !sameVerdicts(old, v) {
		l.mismatch = append(l.mismatch, k)
	}
	l.sets[k] = v
}

// sameVerdicts compares two sets' ids, classes and phase bits.
func sameVerdicts(a, b verdicts) bool {
	return slices.Equal(a.ids, b.ids) && slices.Equal(a.class, b.class) &&
		slices.EqualFunc(a.phase, b.phase, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestEngineCrashEquivalence pins the serving-layer analogue of the
// monitor's headline property: an engine fed by a crash-looping, halted,
// WAL-recovered monitor ends bit-identical to one fed by an uninterrupted
// run. The campaign spans three whole UTC days, so classes are decided, and
// every set either engine installs, published or resynced, carries the
// clean run's class and phase bits at its round count.
func TestEngineCrashEquivalence(t *testing.T) {
	const rounds = 420 // three whole UTC days from midnight and a bit
	mkCfg := func(net *netsim.Network, sink monitor.EpochSink) monitor.Config {
		cfg := baseConfig(net, rounds)
		cfg.SnapshotEvery = 25
		cfg.Sink = sink
		return cfg
	}

	clean := newSetLog(NewEngine(EngineConfig{}))
	m, err := monitor.New(mkCfg(chaosWorld(t), clean))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Run(context.Background()); err != nil || !res.Completed {
		t.Fatalf("clean run: err=%v res=%+v", err, res)
	}

	// Chaotic twin: three injected shard kills, one past each of the first
	// three day ends, a hard halt, then a resume over the WAL — the same
	// engine sees kills' resyncs mid-run and the resume's recovery resyncs
	// across monitor instances.
	dir := t.TempDir()
	eng := NewEngine(EngineConfig{})
	eng.chunk = 3 // every shard is larger than a fold chunk: folds split across Ps
	chaos := newSetLog(eng)
	cfg := mkCfg(chaosWorld(t), chaos)
	cfg.WALDir = dir
	cfg.HaltAfterRound = 330
	cfg.Chaos = &faults.ChaosPlan{
		Kills: []faults.ShardRound{{Shard: 0, Round: 140}, {Shard: 1, Round: 270}, {Shard: 2, Round: 300}},
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

	cfg2 := mkCfg(chaosWorld(t), chaos)
	cfg2.WALDir = dir
	m3, err := monitor.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m3.Run(context.Background()); err != nil || !res.Completed {
		t.Fatalf("resume run: err=%v res=%+v", err, res)
	}

	epochsIdentical(t, clean.Epoch(), eng.Epoch())
	if len(clean.mismatch)+len(chaos.mismatch) > 0 {
		t.Fatalf("a resync installed other bits than the publish at the same count: %v %v", clean.mismatch, chaos.mismatch)
	}
	for k, v := range chaos.sets {
		if want, ok := clean.sets[k]; !ok || !sameVerdicts(v, want) {
			t.Fatalf("shard %d at %d rounds: the chaotic run's classes and phases differ from the clean run's", k.shard, k.rounds)
		}
	}
	decided := 0
	for _, c := range cols(eng.Epoch()).class {
		if c != monitor.ClassUnknown {
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("no block of the final epoch holds a decided class")
	}
}

// classRow is one campaign of TestEpochClassIsStudyClass.
type classRow struct {
	name  string
	world world.Config
	// lossy raises every generated block's path loss fivefold, capped at
	// 0.2, before the campaign.
	lossy          bool
	faults         faults.Config
	rounds, shards int
	// everyRound checks the sets at every committed round count; otherwise
	// only at the counts that end a UTC day.
	everyRound bool
}

// classRows are the campaigns the one-detector contract is checked on:
// four whole UTC days across three shards, checked at every round count,
// then three world scenarios — clean, elevated per-block path loss, and
// frequent whole-block outages — each under the fault-free level, 2% and
// 10% loss and a 4-probe rate limit, one shard for five days, checked at
// every UTC day end.
func classRows() []classRow {
	rows := []classRow{{
		name:   "3 shards, every round",
		world:  world.Config{Blocks: 24, Seed: 0xd1a1},
		rounds: 600, shards: 3, everyRound: true, // four whole UTC days
	}}
	const seed = 42
	scenarios := []struct {
		name  string
		world world.Config
		lossy bool
	}{
		{name: "clean"},
		{name: "lossy-net", lossy: true},
		{name: "outage-heavy", world: world.Config{OutagesPerBlockWeek: 0.5}},
	}
	for si, sc := range scenarios {
		sc.world.Blocks = 90
		sc.world.Seed = seed ^ (uint64(si+1) * 0x9e3779b97f4a7c15)
		for _, lvl := range faults.SweepLevels(seed, []float64{0.02, 0.10}, []int{4}) {
			rows = append(rows, classRow{
				name: sc.name + " × " + lvl.Label, world: sc.world, lossy: sc.lossy, faults: lvl.Config,
				rounds: analysis.RoundsForDays(5), shards: 1,
			})
		}
	}
	return rows
}

// endsDay reports whether n rounds from start end at or past a UTC midnight
// that n-1 rounds did not reach. It reads the clock, not the monitor, so the
// test does not trust the code it checks.
func endsDay(start time.Time, n int) bool {
	end := start.Add(time.Duration(n) * timeseries.DefaultRound)
	return !end.Truncate(24 * time.Hour).Equal(end.Add(-timeseries.DefaultRound).Truncate(24 * time.Hour))
}

// confusion counts checked block-round-counts by the study's class (row)
// and the served class (column).
type confusion [4][4]int

func (c *confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "study\\served")
	for col := range c[0] {
		fmt.Fprintf(&b, " %12v", monitor.Class(col))
	}
	for row := range c {
		fmt.Fprintf(&b, "\n%-14v", monitor.Class(row))
		for _, n := range c[row] {
			fmt.Fprintf(&b, " %12d", n)
		}
	}
	return b.String()
}

// TestEpochClassIsStudyClass is the one-detector contract: in a live
// monitor and engine campaign, every set a shard installs at a checked
// committed round count n carries for each block exactly
// core.ClassifySeries of the block's committed series [:n]: its class, or
// unknown where it errors, and its phase bits (0 outside the diurnal
// classes). Every campaign monitors at least 20 blocks and leaves none
// unknown at its last UTC day end, and the campaigns between them meet
// every class. A failing campaign prints its confusion matrix.
func TestEpochClassIsStudyClass(t *testing.T) {
	start := analysis.DefaultStart // 17:18 UTC: not a midnight
	want := func(short []float64) (monitor.Class, float64) {
		r, _, err := core.ClassifySeries(timeseries.New(start, timeseries.DefaultRound, short))
		switch {
		case err != nil:
			return monitor.ClassUnknown, 0
		case r.Class == core.StrictDiurnal:
			return monitor.ClassStrict, r.Phase
		case r.Class == core.RelaxedDiurnal:
			return monitor.ClassRelaxed, r.Phase
		}
		return monitor.ClassNonDiurnal, 0
	}
	rows := classRows()
	seen, ran := map[monitor.Class]bool{}, 0
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ran++
			w, err := world.Generate(row.world)
			if err != nil {
				t.Fatal(err)
			}
			if row.lossy {
				for _, info := range w.Blocks {
					blk := w.Net.Block(info.ID)
					blk.Loss = min(5*blk.Loss, 0.2)
				}
			}
			faults.Attach(w.Net, row.faults, start) // the world is this row's alone: never detached
			log := newSetLog(NewEngine(EngineConfig{}))
			cfg := baseConfig(w.Net, row.rounds)
			cfg.Start, cfg.Shards, cfg.Sink = start, row.shards, log
			m, err := monitor.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(context.Background())
			if err != nil || !res.Completed {
				t.Fatalf("run: err=%v res=%+v", err, res)
			}
			st, err := res.Study()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Blocks) < 20 {
				t.Fatalf("the campaign monitored %d blocks, want at least 20", len(st.Blocks))
			}
			series := make(map[string][]float64, len(st.Blocks))
			for _, b := range st.Blocks {
				series[b.ID] = b.Short
			}
			lastDayEnd := row.rounds
			for lastDayEnd > 0 && !endsDay(start, lastDayEnd) {
				lastDayEnd--
			}

			var conf confusion
			var differ, unknownAtEnd int
			var first string
			for shard := 0; shard < row.shards; shard++ {
				for n := 0; n <= row.rounds; n++ {
					if !row.everyRound && !endsDay(start, n) {
						continue
					}
					v, ok := log.sets[setKey{shard, n}]
					if !ok {
						t.Fatalf("shard %d never installed a set at %d rounds", shard, n)
					}
					for i, id := range v.ids {
						class, phase := want(series[id.String()][:n])
						conf[class][v.class[i]]++
						seen[class] = true
						if v.class[i] != class || math.Float64bits(v.phase[i]) != math.Float64bits(phase) {
							if differ == 0 {
								first = fmt.Sprintf("shard %d at %d rounds, block %v: served %v %v, ClassifySeries %v %v",
									shard, n, id, v.class[i], v.phase[i], class, phase)
							}
							differ++
						}
						if n == lastDayEnd && v.class[i] == monitor.ClassUnknown {
							unknownAtEnd++
						}
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d served verdicts differ from ClassifySeries; the first: %s\n%v", differ, first, &conf)
			}
			if unknownAtEnd > 0 {
				t.Errorf("%d blocks unknown at the last UTC day end (%d rounds)\n%v", unknownAtEnd, lastDayEnd, &conf)
			}
		})
	}
	for _, c := range []monitor.Class{monitor.ClassUnknown, monitor.ClassNonDiurnal, monitor.ClassRelaxed, monitor.ClassStrict} {
		if ran == len(rows) && !seen[c] {
			t.Errorf("ClassifySeries never said %v: the campaigns no longer cover that class", c)
		}
	}
}

func TestEngineCopyOnWriteIsolation(t *testing.T) {
	reg := metrics.New()
	e := NewEngine(EngineConfig{Metrics: reg})
	drive(e, 3, 2, time.Hour, func(b, r int) monitor.RoundPub { return avail(float64(b) + float64(r)/10) })

	old := e.Epoch()
	if old == nil || old.Rounds != 2 {
		t.Fatalf("epoch after 2 rounds: %+v", old)
	}
	oldAvail := cols(old).avail[1]

	// Two more rounds: a frozen reader's epoch must not move underneath it.
	deltas := []monitor.RoundPub{{Avail: 9}, {Avail: 9}, {Avail: 9}}
	e.PublishRound(0, 2, deltas)
	e.PublishRound(0, 3, deltas)

	if old.Rounds != 2 || cols(old).avail[1] != oldAvail {
		t.Fatal("sealed epoch mutated by later publishes")
	}
	cur := e.Epoch()
	if cur.Rounds != 4 || cols(cur).avail[1] != 9 {
		t.Fatalf("current epoch = %d rounds avail=%v, want 4 rounds avail=9", cur.Rounds, cols(cur).avail[1])
	}

	// A replayed round must be dropped, not corrupt state.
	e.PublishRound(0, 2, deltas)
	mustBeUnlocked(t, e, "a replayed PublishRound")
	if got := e.Epoch(); got.Rounds != 4 {
		t.Fatalf("replayed round advanced the epoch to %d", got.Rounds)
	}
	if reg.Snapshot().Counter("serve.publish_ignored") == 0 {
		t.Fatal("replayed round was not counted as ignored")
	}
	// So must a round for a shard the run does not have.
	e.PublishRound(7, 4, deltas)
	mustBeUnlocked(t, e, "a PublishRound for an unknown shard")
	e.PublishRound(0, 4, deltas)
	if got := e.Epoch(); got.Rounds != 5 {
		t.Fatalf("after the dropped rounds, round 4 left epoch %d, want 5", got.Rounds)
	}
}

// mustBeUnlocked fails the test if the call just made returned still
// holding the writer mutex — the early returns that drop a publication or
// a resync each release it by hand.
func mustBeUnlocked(t *testing.T, e *Engine, call string) {
	t.Helper()
	if !e.mu.TryLock() {
		t.Fatalf("%s returned holding e.mu", call)
	}
	e.mu.Unlock()
}

// TestEngineDegradedOnQuarantine: a crash-looping shard quarantines; the
// engine keeps serving the surviving shards' progress and reports degraded.
func TestEngineDegradedOnQuarantine(t *testing.T) {
	// One kill a round outlasts the monitor's five restarts.
	const rounds = 8
	kills := make([]faults.ShardRound, 0, rounds)
	for r := 0; r < rounds; r++ {
		kills = append(kills, faults.ShardRound{Shard: 0, Round: r})
	}
	eng := NewEngine(EngineConfig{})
	cfg := baseConfig(testNet(8), rounds)
	cfg.Shards = 2
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
	if ep.Rounds != rounds {
		t.Fatalf("epoch floor = %d, want the surviving shard's %d", ep.Rounds, rounds)
	}
	if ep.Len() != 8 {
		t.Fatalf("epoch len = %d, want all 8 blocks (quarantined shard frozen)", ep.Len())
	}
}

// shardFeed drives one shard of an engine from per-block publications
// through the EpochSink contract, keeping what it last sent each block.
type shardFeed struct {
	shard  int
	first  int // the shard's first block, as an index into the epoch
	ids    []netsim.BlockID
	series func(b, r int) monitor.RoundPub // b indexes the shard's blocks
	rounds int                             // rounds sent
	deltas []monitor.RoundPub              // the last round sent
}

func newShardFeed(shard, first, blocks int, series func(b, r int) monitor.RoundPub) *shardFeed {
	f := &shardFeed{
		shard: shard, first: first, series: series,
		ids:    make([]netsim.BlockID, blocks),
		deltas: make([]monitor.RoundPub, blocks),
	}
	for b := range f.ids {
		f.ids[b] = netsim.MakeBlockID(10, byte((first+b)>>8), byte(first+b))
	}
	return f
}

// publish sends the shard's next round.
func (f *shardFeed) publish(e *Engine) {
	for b := range f.deltas {
		f.deltas[b] = f.series(b, f.rounds)
	}
	e.PublishRound(f.shard, f.rounds, f.deltas)
	f.rounds++
}

// resync re-publishes the shard's committed state, as a restarted shard
// does.
func (f *shardFeed) resync(e *Engine) {
	pub := make([]monitor.PubBlock, len(f.ids))
	for b, d := range f.deltas {
		pub[b] = monitor.PubBlock{ID: f.ids[b], Short: d.Avail, Long: d.Long, Class: d.Class, Phase: d.Phase}
	}
	e.ResyncShard(f.shard, f.rounds, pub)
}

// matchesSent compares the epoch's rows for the feed's blocks with what the
// feed last sent: column bits, and the served peak and sleep hours, which
// derive from the midnight-anchored phase alone.
func (f *shardFeed) matchesSent(t *testing.T, ep *Epoch) {
	t.Helper()
	c := cols(ep)
	for b, d := range f.deltas {
		i := f.first + b
		if c.class[i] != d.Class || math.Float64bits(c.phase[i]) != math.Float64bits(d.Phase) ||
			math.Float64bits(c.avail[i]) != math.Float64bits(d.Avail) {
			t.Fatalf("epoch %d block %v: class %v phase %v avail %v, sent %v %v %v",
				ep.Rounds, c.ids[i], c.class[i], c.phase[i], c.avail[i], d.Class, d.Phase, d.Avail)
		}
		bs, ok := ep.Lookup(f.ids[b])
		if !ok || (bs.PeakUTCHour != nil) != d.Class.Diurnal() {
			t.Fatalf("epoch %d block %v: lookup ok=%v peak=%v, class %v", ep.Rounds, f.ids[b], ok, bs.PeakUTCHour, d.Class)
		}
		if d.Class.Diurnal() {
			peak := core.UTCPeakHour(d.Phase)
			if math.Float64bits(*bs.PeakUTCHour) != math.Float64bits(peak) ||
				math.Float64bits(*bs.SleepUTCHour) != math.Float64bits(math.Mod(peak+12, 24)) {
				t.Fatalf("epoch %d block %v: served peak/sleep %v/%v for phase %v",
					ep.Rounds, f.ids[b], *bs.PeakUTCHour, *bs.SleepUTCHour, d.Phase)
			}
		}
	}
}

// TestEngineShardsMatchPerBlockReplay: three shards driven out of step —
// one two rounds ahead, one resynced mid-way — must seal, at every epoch,
// what each block's shard last sent: class, phase bits and the served
// peak/sleep bits.
func TestEngineShardsMatchPerBlockReplay(t *testing.T) {
	const rounds, perShard = 80, 4
	info := monitor.RunInfo{
		Shards: 3, Rounds: rounds, Blocks: 3 * perShard,
		Start:  time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC),
		Period: time.Hour, Seed: 1,
	}
	// A block's verdict changes every 24 rounds, cycling through the
	// classes; diurnal ones carry a phase that moves with it.
	series := func(shard int) func(b, r int) monitor.RoundPub {
		return func(b, r int) monitor.RoundPub {
			d := avail(float64((b+r+shard)%9) / 8)
			d.Class = monitor.Class((b + r/24 + shard) % 4)
			if d.Class.Diurnal() {
				d.Phase = float64(b+r/24-shard) / 3
			}
			return d
		}
	}
	e := NewEngine(EngineConfig{})
	e.chunk = 3 // every shard is larger than a fold chunk: folds split across Ps
	e.BeginRun(info)
	feeds := make([]*shardFeed, info.Shards)
	for s := range feeds {
		feeds[s] = newShardFeed(s, s*perShard, perShard, series(s))
		feeds[s].resync(e)
	}
	feeds[0].publish(e)
	feeds[0].publish(e)
	seen := map[monitor.Class]bool{}
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
			f.matchesSent(t, ep)
		}
		for _, c := range cols(ep).class {
			seen[c] = true
		}
	}
	for _, c := range []monitor.Class{monitor.ClassUnknown, monitor.ClassNonDiurnal, monitor.ClassRelaxed, monitor.ClassStrict} {
		if !seen[c] {
			t.Errorf("no block was ever %v: the fixture no longer covers that class", c)
		}
	}
}

// TestEngineResyncAcrossClassChange: a block that is diurnal, then not, then
// diurnal again, with a resync while it is not. The resynced mirror starts
// from the resync's columns, the twin that never resynced from its own
// folds; the two epochs must agree bit for bit at every round, phase
// included.
func TestEngineResyncAcrossClassChange(t *testing.T) {
	const stage = 48
	info := monitor.RunInfo{
		Shards: 1, Rounds: 3 * stage, Blocks: 1,
		Start: testEpoch, Period: time.Hour, Seed: 1,
	}
	series := func(_, r int) monitor.RoundPub {
		d := avail(0.5 + 0.4*math.Cos(2*math.Pi*(float64(r)-8)/24))
		if r/stage == 1 {
			d.Class = monitor.ClassNonDiurnal
		} else {
			d.Class, d.Phase = monitor.ClassStrict, -2*math.Pi*8/24
		}
		return d
	}
	plain, resynced := NewEngine(EngineConfig{}), NewEngine(EngineConfig{})
	fp, fr := newShardFeed(0, 0, 1, series), newShardFeed(0, 0, 1, series)
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
		if got := cols(ep).class[0].Diurnal(); (r+1)%stage == 0 && got != wantDiurnal[r/stage] {
			t.Fatalf("round %d: diurnal=%v, want %v", r, got, wantDiurnal[r/stage])
		}
	}
}

// allocBytes is what one call of f allocates in bytes, averaged over runs
// calls after a warm-up one, on one P: testing.AllocsPerRun by size.
func allocBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestPublishRoundAllocs: a publish folds into a column set no epoch points
// at. When the shard's current set was never sealed, it writes that set in
// place and allocates nothing. When it was sealed, the
// publish allocates one column set of its own shard, 30 B a block, and
// nothing of any other shard. A seal allocates the Epoch and its segment
// list, and no column.
func TestPublishRoundAllocs(t *testing.T) {
	const small, large, runs = 64, 4096, 50
	// header bounds the fixed part of a sealing publish: the colSet, the
	// Epoch and its segment list.
	const header = 512
	info := monitor.RunInfo{
		Shards: 2, Rounds: 5 * runs, Blocks: large + small,
		Start: testEpoch, Period: time.Hour, Seed: 1,
	}
	series := func(b, r int) monitor.RoundPub {
		return monitor.RoundPub{Avail: 0.5 + 0.4*math.Cos(2*math.Pi*float64(r+b)/24), Class: monitor.ClassStrict, Phase: float64(b)}
	}
	e := NewEngine(EngineConfig{})
	e.BeginRun(info)
	ahead, floor := newShardFeed(0, 0, large, series), newShardFeed(1, large, small, series)
	ahead.resync(e)
	floor.resync(e)
	ahead.publish(e)
	floor.publish(e)
	sealed := e.Epoch().Rounds
	// Past the floor, the shard ahead folds into one set no epoch saw.
	for r := 0; r < 3*runs; r++ {
		ahead.publish(e)
	}
	if got := testing.AllocsPerRun(runs, func() { ahead.publish(e) }); got != 0 {
		t.Errorf("a publish whose current set was never sealed allocates %.0f times, want 0", got)
	}
	if e.Epoch().Rounds != sealed {
		t.Fatalf("the shard ahead of the floor sealed an epoch (%d → %d)", sealed, e.Epoch().Rounds)
	}

	// Every publish of the floor shard seals, so each displaces a sealed set.
	const sealingAllocs = 9 // the set and its six columns, the Epoch and its segment list
	if got := testing.AllocsPerRun(runs, func() { floor.publish(e) }); got != sealingAllocs {
		t.Errorf("a publish that seals allocates %.0f times, want %d", got, sealingAllocs)
	}
	if got, limit := allocBytes(runs, func() { floor.publish(e) }), float64(30*small+header); got > limit {
		t.Errorf("a publish that seals allocates %.0f B, want at most %.0f: one set of its own %d blocks",
			got, limit, small)
	}
	if want := sealed + 2*(runs+1); e.Epoch().Rounds != want {
		t.Fatalf("the floor shard's publishes sealed up to %d, want %d", e.Epoch().Rounds, want)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	reseal := func() {
		e.sealedRound--
		e.sealLocked()
	}
	if got := testing.AllocsPerRun(runs, reseal); got != 2 {
		t.Errorf("a seal allocates %.0f times, want 2: the Epoch and its segment list", got)
	}
	if got := allocBytes(runs, reseal); got > header {
		t.Errorf("a seal allocates %.0f B, want at most %d: no column", got, header)
	}
}

// epochJSON is everything a reader can get out of ep, as JSON: the full
// listing and the rollup.
func epochJSON(t *testing.T, ep *Epoch) string {
	t.Helper()
	s, err := readEpoch(ep)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// readEpoch is epochJSON for a goroutine other than the test's.
func readEpoch(ep *Epoch) (string, error) {
	blocks, _, err := ep.Range(context.Background(), 0, ^netsim.BlockID(0), ep.Len(), false)
	if err != nil {
		return "", err
	}
	sum, err := ep.Summary(context.Background())
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(blocks)
	if err != nil {
		return "", err
	}
	s, err := json.Marshal(sum)
	return string(b) + string(s), err
}

// TestEngineReaderIsolation: a reader holding an epoch keeps its answers
// while the shards it points at move on — publishing out of step (a shard
// ahead of the floor writes its set in place only while no epoch points at
// it), resyncing and publishing again.
func TestEngineReaderIsolation(t *testing.T) {
	const perShard = 4
	info := monitor.RunInfo{
		Shards: 3, Rounds: 40, Blocks: 3 * perShard,
		Start: testEpoch, Period: time.Hour, Seed: 1,
	}
	series := func(b, r int) monitor.RoundPub {
		d := avail(float64((b+r)%9) / 8)
		d.Class = monitor.Class((b + r) % 4)
		if d.Class.Diurnal() {
			d.Phase = float64(b-r) / 5
		}
		return d
	}
	e := NewEngine(EngineConfig{})
	e.BeginRun(info)
	feeds := make([]*shardFeed, info.Shards)
	for s := range feeds {
		feeds[s] = newShardFeed(s, s*perShard, perShard, series)
		feeds[s].resync(e)
	}
	for r := 0; r < 3; r++ {
		for _, f := range feeds {
			f.publish(e)
		}
	}
	held := e.Epoch()
	want := epochJSON(t, held)
	steps := []struct {
		name string
		do   func()
	}{
		{"shard 0 publishes ahead", func() { feeds[0].publish(e) }},
		{"shard 0 publishes further ahead", func() { feeds[0].publish(e) }},
		{"shard 0 publishes a third round ahead", func() { feeds[0].publish(e) }},
		{"shard 1 publishes", func() { feeds[1].publish(e) }},
		{"shard 2 resyncs", func() { feeds[2].resync(e) }},
		{"shard 2 publishes", func() { feeds[2].publish(e) }},
		{"shard 1 catches up", func() { feeds[1].publish(e); feeds[1].publish(e) }},
		{"shard 2 catches up", func() { feeds[2].publish(e); feeds[2].publish(e) }},
		{"every shard publishes again", func() {
			for _, f := range feeds {
				f.publish(e)
			}
		}},
	}
	for _, s := range steps {
		s.do()
		if got := epochJSON(t, held); got != want {
			t.Fatalf("after %q the held epoch reads\n%s\nwant\n%s", s.name, got, want)
		}
	}
	if got := e.Epoch().Rounds; got != held.Rounds+4 {
		t.Fatalf("the engine sealed up to %d, want %d", got, held.Rounds+4)
	}
}

// TestEngineConcurrentWritersOfTwoRuns races every writer the engine has
// against its readers. Run A's shards publish and resync on goroutines of
// their own while another goroutine begins run B, with one shard fewer,
// and feeds it; a third quarantines shards; readers hold epochs. A's
// writers go on past B's start, so some of their calls name a shard B does
// not have or a round B's shard never reached, and are ignored. Whatever
// the interleaving, a sealed epoch reads the same forever and the served
// epoch never goes back.
func TestEngineConcurrentWritersOfTwoRuns(t *testing.T) {
	const (
		shardsA, shardsB, perShard = 3, 2, 20
		rounds, extra              = 150, 30 // A's rounds before B begins; after
	)
	series := func(b, r int) monitor.RoundPub {
		d := avail(float64((b*7+r)%11) / 10)
		d.Class = monitor.Class((b + r) % 4)
		if d.Class.Diurnal() {
			d.Phase = float64(b+r) / 7
		}
		d.Failed = (b+r)%5 == 0
		return d
	}
	reg := metrics.New()
	e := NewEngine(EngineConfig{Metrics: reg})
	e.chunk = 7 // every shard folds across goroutines
	info := func(shards int) monitor.RunInfo {
		return monitor.RunInfo{
			Shards: shards, Rounds: 2 * rounds, Blocks: shards * perShard,
			Start: testEpoch, Period: time.Hour, Seed: 1,
		}
	}
	e.BeginRun(info(shardsA))

	var (
		writers  sync.WaitGroup
		begunB   = make(chan struct{})
		finished = make(chan struct{})
	)
	started := make(chan struct{}, shardsA)
	for s := 0; s < shardsA; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			f := newShardFeed(s, s*perShard, perShard, series)
			f.resync(e)
			started <- struct{}{}
			for i := 0; i < rounds; i++ {
				f.publish(e)
				if i%23 == 22 {
					f.resync(e)
				}
			}
			<-begunB
			for i := 0; i < extra; i++ {
				f.publish(e)
				if i%7 == 6 {
					f.resync(e)
				}
			}
		}(s)
	}
	writers.Add(1)
	go func() { // run B
		defer writers.Done()
		for range shardsA {
			<-started
		}
		for e.Epoch() == nil || e.Epoch().Rounds < rounds/3 {
			runtime.Gosched()
		}
		e.BeginRun(info(shardsB))
		close(begunB)
		feeds := make([]*shardFeed, shardsB)
		for s := range feeds {
			feeds[s] = newShardFeed(s, 1000+s*perShard, perShard, series)
			feeds[s].resync(e)
		}
		for i := 0; i < rounds; i++ {
			for _, f := range feeds {
				f.publish(e)
			}
		}
	}()
	writers.Add(1)
	go func() { // quarantines
		defer writers.Done()
		for i := 0; i < 40; i++ {
			e.ShardDown(i % shardsA)
			runtime.Gosched()
		}
	}()

	type heldEpoch struct {
		ep   *Epoch
		json string
	}
	var readers sync.WaitGroup
	held := make([][]heldEpoch, 3)
	for g := range held {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			last := 0
			for i, done := 0, false; !done; i++ {
				select {
				case <-finished:
					done = true
				default:
				}
				ep := e.Epoch()
				if ep == nil {
					runtime.Gosched()
					continue
				}
				if ep.Rounds < last {
					t.Errorf("reader %d: the served epoch went back from %d to %d rounds", g, last, ep.Rounds)
					return
				}
				last = ep.Rounds
				if n := len(held[g]); n < 16 && (n == 0 || held[g][n-1].ep != ep) {
					got, err := readEpoch(ep)
					if err != nil {
						t.Error(err)
						return
					}
					held[g] = append(held[g], heldEpoch{ep, got})
				}
				h := held[g][i%len(held[g])]
				got, err := readEpoch(h.ep)
				if err != nil {
					t.Error(err)
					return
				}
				if got != h.json {
					t.Errorf("reader %d: epoch %d changed while held", g, h.ep.Rounds)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(finished)
	readers.Wait()

	for g, hs := range held {
		if len(hs) == 0 {
			t.Errorf("reader %d held no epoch", g)
		}
		for _, h := range hs {
			if got := epochJSON(t, h.ep); got != h.json {
				t.Errorf("reader %d: epoch %d reads\n%s\nafter the writers stopped, was\n%s", g, h.ep.Rounds, got, h.json)
			}
		}
	}
	if reg.Snapshot().Counter("serve.publish_ignored") == 0 {
		t.Error("no call was ignored: run A's writers never outran run B's start")
	}
}
