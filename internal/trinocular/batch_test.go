package trinocular

import (
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
)

// wavefrontWorld is one independently built copy of the equivalence
// fixture: identical worlds are built for the reference and the wavefront
// runs so the two share no state and every counter can be compared at the
// end. probers[i] probes ids[i], one prober per block.
type wavefrontWorld struct {
	net     *netsim.Network
	inj     *faults.Injector
	reg     *metrics.Registry
	probers []*Prober
	ids     []netsim.BlockID
	// sharedSeed gives every prober seed 40 instead of one of its own.
	sharedSeed bool
}

// arrangements are the two ways the fixture seeds its probers. By default
// each prober's seed is derived from its block id exactly as core.Pipeline
// derives it; under one-prober every prober takes the one seed 40, as a
// monitor shard seeds every prober with the campaign's seed. Seed 40 puts
// exactly one of the four blocks inside the restart window, so that
// fixture mixes cold and warm lanes in one batch.
var arrangements = []struct {
	name       string // subtest name; "" runs the case at the top level
	sharedSeed bool
}{
	{"", false},
	{"one-prober", true},
}

// newProber builds the fixture's prober for block id, on the fixture's
// network and registry, and registers the block with it.
func (w *wavefrontWorld) newProber(t *testing.T, blk *netsim.Block) *Prober {
	t.Helper()
	seed := 24 ^ uint64(blk.ID)
	if w.sharedSeed {
		seed = 40
	}
	p := New(w.net, Config{
		RestartInterval: 5*time.Hour + 30*time.Minute,
		Retry:           RetryConfig{MaxAttempts: 3},
		Metrics:         w.reg,
	}, seed)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildWavefrontWorld assembles a hostile fixture that exercises every probe
// outcome: an always-up block (first-probe positives), a flaky block
// (multi-probe negative runs), an outage block whose gateway sometimes
// answers unreachable, and a patchy block whose hosts answer half the
// rounds. The fault injector adds loss, reply corruption, admin-prohibited
// rate limiting, clock skew, and periodic vantage blackouts (send errors →
// retries → lanes that leave the wavefront).
func buildWavefrontWorld(t *testing.T, withFaults, sharedSeed bool) *wavefrontWorld {
	t.Helper()
	n := netsim.NewNetwork(42)

	up := buildBlock(netsim.MakeBlockID(10, 3, 1), 100, 0, 0)
	flaky := buildBlock(netsim.MakeBlockID(10, 3, 2), 0, 100, 0.4)
	outage := buildBlock(netsim.MakeBlockID(10, 3, 3), 80, 0, 0)
	outage.GatewayUnreachableProb = 0.5
	outage.Outages = []netsim.Interval{
		{Start: at(0, 3, 0), End: at(0, 7, 0)},
		{Start: at(0, 14, 0), End: at(0, 16, 0)},
	}
	patchy := buildBlock(netsim.MakeBlockID(10, 3, 4), 0, 90, 0.5)

	w := &wavefrontWorld{net: n, reg: metrics.New(), sharedSeed: sharedSeed}
	if withFaults {
		w.inj = faults.New(faults.Config{
			Seed:              9,
			LossRate:          0.15,
			CorruptRate:       0.15,
			RateLimitPerRound: 6,
			ClockSkew:         30 * time.Millisecond,
			BlackoutEvery:     2 * time.Hour,
			BlackoutFor:       90 * time.Second,
		}, epoch)
		n.SetTap(w.inj)
	}
	for _, blk := range []*netsim.Block{up, flaky, outage, patchy} {
		n.AddBlock(blk)
		w.probers = append(w.probers, w.newProber(t, blk))
		w.ids = append(w.ids, blk.ID)
	}
	return w
}

// sendBlackout is a tap that fails every send to blk made in the first
// second of a round (rounds start every `every` since epoch): the first
// attempt of the round's first probe dies at the vantage point, and the
// retry, backed off by seconds, gets through. Unlike the fault injector's
// blackouts it hits one block only, so in a wavefront one lane retries
// while the others carry on.
type sendBlackout struct {
	blk   netsim.BlockID
	every time.Duration
}

func (b sendBlackout) OutboundBatch(dsts []netsim.Addr, now time.Time, times []time.Time, verdicts []netsim.TapVerdict) {
	for i, dst := range dsts {
		times[i], verdicts[i] = now, netsim.TapDeliver
		if dst.Block == b.blk && now.Sub(epoch)%b.every < time.Second {
			verdicts[i] = netsim.TapSendError
		}
	}
}

func (sendBlackout) Inbound(_ netsim.Addr, reply []byte, _ time.Time) []byte { return reply }

// equivalenceCases are the fixtures both equivalence gates run. In
// "lane-retry" the flaky block is probed first and every fourth round its
// first send fails: lane 0 retries in the middle of phase one while lane 1,
// the always-up block, holds that phase's first reply — the bytes a retry
// through the wavefront's own buffer would overwrite.
var equivalenceCases = []struct {
	name       string
	withFaults bool
	laneRetry  bool
}{
	{"clean", false, false},
	{"faulty", true, false},
	{"lane-retry", false, true},
}

// armLaneRetry turns a clean fixture into the lane-retry one: the flaky
// block moves to the front of the probing order and gets the blackout tap.
func armLaneRetry(n *netsim.Network, ids []netsim.BlockID) {
	ids[0], ids[1] = ids[1], ids[0]
	n.SetTap(sendBlackout{blk: ids[0], every: 4 * 660 * time.Second})
}

// checkLaneRetry is the lane-retry fixture's own tameness check: lane 0
// retried in a round whose lane 1 was answered by its first probe.
func checkLaneRetry(t *testing.T, retriedBesidePositive int) {
	t.Helper()
	if retriedBesidePositive == 0 {
		t.Fatal("lane-retry fixture too tame: lane 0 never retried in a phase lane 1 answered")
	}
}

// TestProbeRoundsBatchGroupMatchesScalar is the prober-level equivalence
// gate: the wavefront must produce, round for round and block for block,
// the exact observations of sequential ProbeRound calls — and leave prober
// memory, fault-injector state and the metrics registry identical too. It runs with a seed per prober and, under one-prober/,
// with one seed for every prober; each with and without the fault tap. The
// faulty run covers retries, lanes leaving the wavefront, corrupted
// replies, and admin-prohibited cut-offs, the lane-retry run a retry beside
// live reply views, and the fixture asserts each actually fired.
func TestProbeRoundsBatchGroupMatchesScalar(t *testing.T) {
	for _, arr := range arrangements {
		runArrangement(t, arr.name, func(t *testing.T) {
			for _, tc := range equivalenceCases {
				t.Run(tc.name, func(t *testing.T) {
					checkGroupMatchesScalar(t, tc.withFaults, tc.laneRetry, arr.sharedSeed)
				})
			}
		})
	}
}

// runArrangement runs f as subtest name, or directly when name is empty.
func runArrangement(t *testing.T, name string, f func(t *testing.T)) {
	if name == "" {
		f(t)
		return
	}
	t.Run(name, f)
}

func checkGroupMatchesScalar(t *testing.T, withFaults, laneRetry, sharedSeed bool) {
	ws := buildWavefrontWorld(t, withFaults, sharedSeed)
	wb := buildWavefrontWorld(t, withFaults, sharedSeed)
	if laneRetry {
		for _, w := range []*wavefrontWorld{ws, wb} {
			armLaneRetry(w.net, w.ids)
			w.probers[0], w.probers[1] = w.probers[1], w.probers[0]
		}
	}

	bc := NewBatchContext()
	aOps := []float64{0.9, 0.4, 0.8, 0.3}
	outB := make([]RoundObs, len(wb.ids))

	var agg RoundObs
	cold := 0
	retriedBesidePositive := 0
	for r := 0; r < 64; r++ {
		now := epoch.Add(time.Duration(r) * 660 * time.Second)
		if err := ProbeRoundsBatchGroup(bc, wb.probers, wb.ids, aOps, now, outB); err != nil {
			t.Fatal(err)
		}
		if outB[0].Retries > 0 && outB[1].Positive == 1 && outB[1].Total == 1 {
			retriedBesidePositive++
		}
		for i, id := range ws.ids {
			obsS, err := ws.probers[i].ProbeRound(now, aOps[i])
			if err != nil {
				t.Fatal(err)
			}
			if obsS != outB[i] {
				t.Fatalf("round %d block %s diverged:\nscalar %+v\ngroup  %+v", r, id, obsS, outB[i])
			}
			agg.Total += obsS.Total
			agg.Positive += obsS.Positive
			agg.Unreachable += obsS.Unreachable
			agg.Retries += obsS.Retries
			agg.SendErrors += obsS.SendErrors
			agg.RateLimited += obsS.RateLimited
			if obsS.Cold {
				cold++
			}
		}
	}

	// The fixture must actually exercise the interesting paths, or the
	// equivalence above proves less than it claims.
	if agg.Positive == 0 || agg.Unreachable == 0 || (sharedSeed && cold == 0) {
		t.Fatalf("fixture too tame: %+v, %d cold rounds", agg, cold)
	}
	if withFaults && (agg.Retries == 0 || agg.SendErrors == 0 || agg.RateLimited == 0) {
		t.Fatalf("fault fixture too tame: %+v", agg)
	}
	if laneRetry {
		checkLaneRetry(t, retriedBesidePositive)
	}

	for i := range ws.probers {
		if sState, bState := ws.probers[i].State(), wb.probers[i].State(); sState != bState {
			t.Errorf("prober %d state diverged:\nscalar %+v\ngroup  %+v", i, sState, bState)
		}
		if s, b := ws.probers[i].ProbesSent(), wb.probers[i].ProbesSent(); s != b {
			t.Errorf("prober %d ProbesSent %d vs %d", i, s, b)
		}
	}
	if withFaults {
		if s, b := ws.inj.Totals(), wb.inj.Totals(); s != b {
			t.Errorf("injector totals diverged: %+v vs %+v", s, b)
		}
	}
	sSnap, bSnap := ws.reg.Snapshot().Deterministic(), wb.reg.Snapshot().Deterministic()
	for _, name := range []string{
		"trinocular.probes_sent", "trinocular.positives", "trinocular.unreachables",
		"trinocular.retries", "trinocular.send_errors", "trinocular.rounds",
		"trinocular.rounds_cold", "trinocular.rounds_rate_limited",
		"trinocular.rounds_cut_short", "trinocular.rounds_failed", "trinocular.backoff_ns",
	} {
		if s, b := sSnap.Counter(name), bSnap.Counter(name); s != b {
			t.Errorf("%s: scalar %d, group %d", name, s, b)
		}
	}
}

// TestProbeRoundsBatchGroupErrors pins the argument contract: shape
// mismatches, an id that is not its lane's prober's block and probers on
// different networks error before any lane has begun its round, and an
// empty group is a no-op. Under one-prober/ a group of one prober fails
// on a cold restart boundary: the block keeps its round counter, its walk
// position and the prober its epoch.
func TestProbeRoundsBatchGroupErrors(t *testing.T) {
	w := buildWavefrontWorld(t, false, false)
	bc := NewBatchContext()
	aOps := []float64{0.9, 0.4, 0.8, 0.3}
	out := make([]RoundObs, len(w.ids))
	if err := ProbeRoundsBatchGroup(bc, w.probers, w.ids, aOps, at(0, 0, 0), out); err != nil {
		t.Fatal(err)
	}
	before := w.probers[0].State()

	if err := ProbeRoundsBatchGroup(bc, w.probers[:1], w.ids, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("shape mismatch should error")
	}
	badIDs := append([]netsim.BlockID(nil), w.ids...)
	badIDs[3] = netsim.MakeBlockID(1, 2, 3)
	if err := ProbeRoundsBatchGroup(bc, w.probers, badIDs, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("untracked block should error")
	}
	swapped := append([]netsim.BlockID(nil), w.ids...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if err := ProbeRoundsBatchGroup(bc, w.probers, swapped, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("ids in another order than their probers should error")
	}
	elsewhere := buildWavefrontWorld(t, false, false)
	mixed := append([]*Prober(nil), w.probers...)
	mixed[3] = elsewhere.probers[3]
	if err := ProbeRoundsBatchGroup(bc, mixed, w.ids, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("probers on different networks should error")
	}
	if after := w.probers[0].State(); before != after {
		t.Fatalf("a failed call changed the first lane's prober memory:\nbefore %+v\nafter  %+v", before, after)
	}
	if err := ProbeRoundsBatchGroup(bc, nil, nil, nil, at(0, 0, 11), out); err != nil {
		t.Fatalf("empty group should be a no-op, got %v", err)
	}

	t.Run("one-prober", func(t *testing.T) {
		n := netsim.NewNetwork(1)
		blk := buildBlock(netsim.MakeBlockID(10, 5, 1), 40, 0, 0)
		n.AddBlock(blk)
		// Seed 192 puts the block inside the restart downtime window.
		p := New(n, Config{RestartInterval: time.Hour}, 192)
		if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
			t.Fatal(err)
		}
		bc := NewBatchContext()
		out := make([]RoundObs, 2)
		// A few good rounds first, so that the failing calls — an hour after
		// the first round, on the restart boundary, hence cold — have a walk
		// position to reset.
		for r := 0; r < 3; r++ {
			if err := ProbeRoundsBatchGroup(bc, []*Prober{p}, []netsim.BlockID{blk.ID}, []float64{0.5}, at(0, 5, r*11), out); err != nil {
				t.Fatal(err)
			}
		}
		before, epochBefore := p.State(), p.epoch
		if err := ProbeRoundsBatchGroup(bc, []*Prober{p}, []netsim.BlockID{blk.ID}, []float64{0.5, 0.5}, at(0, 6, 0), out); err == nil {
			t.Fatal("shape mismatch should error")
		}
		if err := ProbeRoundsBatchGroup(bc, []*Prober{p}, []netsim.BlockID{netsim.MakeBlockID(1, 2, 3)}, []float64{0.5}, at(0, 6, 0), out); err == nil {
			t.Fatal("untracked block should error")
		}
		if after := p.State(); before != after || !p.epoch.Equal(epochBefore) {
			t.Fatalf("a failed call changed prober memory:\nbefore %+v\nafter  %+v", before, after)
		}
	})
}

// TestProbeRoundsBatchGroupAllocFree pins the warm-round budget at zero
// allocations: after the first rounds grow every arena, a full wavefront
// round — marshal the phases, cross the boundary once a phase, classify,
// update beliefs — must not touch the heap, with a seed per prober and
// with one seed for every prober. A fifth block of diurnal hosts is probed
// from 20:00 across midnight, so netsim drawing a new day's on-periods is
// inside the budget. Runs without the fault tap: reply corruption is
// copy-on-corrupt by contract and so pays its allocation whatever the path.
func TestProbeRoundsBatchGroupAllocFree(t *testing.T) {
	for _, arr := range arrangements {
		runArrangement(t, arr.name, func(t *testing.T) {
			w := buildWavefrontWorld(t, false, arr.sharedSeed)
			office := &netsim.Block{ID: netsim.MakeBlockID(10, 3, 5), Seed: 5}
			var hosts netsim.Hosts
			for h := 1; h <= 40; h++ {
				hosts[h] = netsim.Diurnal{Phase: 22 * time.Hour, Duration: 6 * time.Hour, StartSigma: time.Hour, Seed: uint64(h)}
			}
			office.SetHosts(&hosts)
			w.net.AddBlock(office)
			w.probers, w.ids = append(w.probers, w.newProber(t, office)), append(w.ids, office.ID)

			bc := NewBatchContext()
			aOps := []float64{0.9, 0.4, 0.8, 0.3, 0.5}
			out := make([]RoundObs, len(w.ids))

			round := 0
			probeAll := func() {
				now := at(0, 20, 0).Add(time.Duration(round) * 660 * time.Second)
				if err := ProbeRoundsBatchGroup(bc, w.probers, w.ids, aOps, now, out); err != nil {
					t.Fatal(err)
				}
				round++
			}
			for i := 0; i < 3; i++ {
				probeAll()
			}
			if avg := testing.AllocsPerRun(50, probeAll); avg != 0 {
				t.Fatalf("wavefront round allocates %.2f times, want 0", avg)
			}
			if bc.RetainedBytes() == 0 {
				t.Fatal("RetainedBytes should report the warm arenas")
			}
		})
	}
}
