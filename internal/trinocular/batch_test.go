package trinocular

import (
	"reflect"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
)

// batchWorld is one independently-built copy of the equivalence fixture:
// identical worlds are built for the reference and batch probers so the two
// runs share no state and every counter can be compared at the end.
type batchWorld struct {
	net *netsim.Network
	inj *faults.Injector
	p   *Prober
	reg *metrics.Registry
	ids []netsim.BlockID
}

// buildBatchWorld assembles a hostile fixture that exercises every probe
// outcome: an always-up block (first-probe positives), a flaky block
// (multi-probe negative runs), an outage block whose gateway sometimes
// answers unreachable, and a reply-rate-limited block. The fault injector
// adds loss, reply corruption, admin-prohibited rate limiting, clock skew,
// and periodic vantage blackouts (send errors → retries → lanes that leave
// the wavefront).
func buildBatchWorld(t *testing.T, withFaults bool) *batchWorld {
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
	limited := buildBlock(netsim.MakeBlockID(10, 3, 4), 0, 90, 0.5)
	limited.ReplyRateLimit = 2

	w := &batchWorld{net: n, reg: metrics.New()}
	for _, blk := range []*netsim.Block{up, flaky, outage, limited} {
		n.AddBlock(blk)
		w.ids = append(w.ids, blk.ID)
	}
	if withFaults {
		w.inj = faults.New(faults.Config{
			Seed:              9,
			LossRate:          0.15,
			CorruptRate:       0.15,
			RateLimitPerRound: 6,
			ClockSkew:         30 * time.Millisecond,
			BlackoutEvery:     2 * time.Hour,
			BlackoutFor:       90 * time.Second,
			Epoch:             epoch,
		})
		n.SetTap(w.inj)
	}
	w.p = New(n, Config{
		RestartInterval: 5*time.Hour + 30*time.Minute,
		// Seed 24 puts exactly one of the four blocks inside this restart
		// window, so the fixture mixes cold and warm lanes in one batch.
		RestartDowntimeFrac: 0.5,
		Retry:               RetryConfig{MaxAttempts: 3, BaseBackoff: 2 * time.Second},
		Metrics:             w.reg,
	}, 24)
	for _, blk := range []*netsim.Block{up, flaky, outage, limited} {
		if err := w.p.AddBlock(blk.ID, blk.EverActive()); err != nil {
			t.Fatal(err)
		}
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

// netCounters snapshots a network's global counters for comparison.
func netCounters(n *netsim.Network) [6]int64 {
	return [6]int64{
		n.Stats.Probes.Load(), n.Stats.Replies.Load(), n.Stats.Timeouts.Load(),
		n.Stats.Lost.Load(), n.Stats.Malformed.Load(), n.Stats.RateLimited.Load(),
	}
}

// TestProbeRoundsBatchMatchesScalar is the prober-level equivalence gate:
// the batched wavefront must produce, round for round and block for block,
// the exact observations of sequential ProbeRound calls — and leave prober
// memory, network counters, fault-injector state, and the metrics registry
// identical too. Runs with and without the fault tap; the faulty run covers
// retries, lanes leaving the wavefront, corrupted replies, and
// admin-prohibited cut-offs, the lane-retry run a retry beside live reply
// views, and the fixture asserts each actually fired.
func TestProbeRoundsBatchMatchesScalar(t *testing.T) {
	for _, tc := range equivalenceCases {
		t.Run(tc.name, func(t *testing.T) {
			ws := buildBatchWorld(t, tc.withFaults)
			wb := buildBatchWorld(t, tc.withFaults)
			if tc.laneRetry {
				armLaneRetry(ws.net, ws.ids)
				armLaneRetry(wb.net, wb.ids)
			}

			bc := NewBatchContext()
			aOps := []float64{0.9, 0.4, 0.8, 0.3}
			outB := make([]RoundObs, len(wb.ids))

			var agg RoundObs
			retriedBesidePositive := 0
			for r := 0; r < 64; r++ {
				now := epoch.Add(time.Duration(r) * 660 * time.Second)
				if err := wb.p.ProbeRoundsBatch(bc, wb.ids, aOps, now, outB); err != nil {
					t.Fatal(err)
				}
				if outB[0].Retries > 0 && outB[1].Positive == 1 && outB[1].Total == 1 {
					retriedBesidePositive++
				}
				for i, id := range ws.ids {
					obsS, err := ws.p.ProbeRound(id, now, aOps[i])
					if err != nil {
						t.Fatal(err)
					}
					if obsS != outB[i] {
						t.Fatalf("round %d block %s diverged:\nscalar %+v\nbatch  %+v", r, id, obsS, outB[i])
					}
					agg.Total += obsS.Total
					agg.Positive += obsS.Positive
					agg.Unreachable += obsS.Unreachable
					agg.Retries += obsS.Retries
					agg.SendErrors += obsS.SendErrors
					agg.RateLimited += obsS.RateLimited
					if obsS.Cold {
						agg.Round++ // reused as a cold-round tally
					}
				}
			}

			// The fixture must actually exercise the interesting paths, or
			// the equivalence above proves less than it claims.
			if agg.Positive == 0 || agg.Unreachable == 0 || agg.Round == 0 {
				t.Fatalf("fixture too tame: %+v", agg)
			}
			if tc.withFaults && (agg.Retries == 0 || agg.SendErrors == 0 || agg.RateLimited == 0) {
				t.Fatalf("fault fixture too tame: %+v", agg)
			}
			if tc.laneRetry {
				checkLaneRetry(t, retriedBesidePositive)
			}

			sState, bState := ws.p.ExportState(), wb.p.ExportState()
			if len(sState.Blocks) != len(bState.Blocks) {
				t.Fatalf("state sizes differ")
			}
			for i := range sState.Blocks {
				if sState.Blocks[i] != bState.Blocks[i] {
					t.Errorf("prober state diverged: %+v vs %+v", sState.Blocks[i], bState.Blocks[i])
				}
			}
			if !sState.Epoch.Equal(bState.Epoch) {
				t.Errorf("epochs diverged: %v vs %v", sState.Epoch, bState.Epoch)
			}
			if s, b := ws.p.ProbesSent(), wb.p.ProbesSent(); s != b {
				t.Errorf("ProbesSent %d vs %d", s, b)
			}
			if s, b := netCounters(ws.net), netCounters(wb.net); s != b {
				t.Errorf("network counters diverged: %v vs %v", s, b)
			}
			for _, id := range ws.ids {
				if s, b := ws.net.ProbesToBlock(id), wb.net.ProbesToBlock(id); s != b {
					t.Errorf("ProbesToBlock(%s) %d vs %d", id, s, b)
				}
			}
			if tc.withFaults {
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
					t.Errorf("%s: scalar %d, batch %d", name, s, b)
				}
			}
		})
	}
}

// TestProbeRoundsBatchErrors pins the argument contract: mismatched shapes
// and untracked blocks fail up front, before any lane has begun its round —
// the tracked blocks ahead of an untracked id keep their round counter,
// their walk position and the prober its unset epoch.
func TestProbeRoundsBatchErrors(t *testing.T) {
	n := netsim.NewNetwork(1)
	blk := buildBlock(netsim.MakeBlockID(10, 5, 1), 40, 0, 0)
	n.AddBlock(blk)
	p := New(n, Config{RestartInterval: time.Hour, RestartDowntimeFrac: 1}, 1)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	bc := NewBatchContext()
	out := make([]RoundObs, 2)
	// A few good rounds first, so that the failing calls — an hour after the
	// first round, on the restart boundary, hence cold — have a walk position
	// to reset.
	for r := 0; r < 3; r++ {
		if err := p.ProbeRoundsBatch(bc, []netsim.BlockID{blk.ID}, []float64{0.5}, at(0, 5, r*11), out); err != nil {
			t.Fatal(err)
		}
	}
	before := p.ExportState()
	if err := p.ProbeRoundsBatch(bc, []netsim.BlockID{blk.ID}, []float64{0.5, 0.5}, at(0, 6, 0), out); err == nil {
		t.Fatal("shape mismatch should error")
	}
	ids := []netsim.BlockID{blk.ID, netsim.MakeBlockID(1, 2, 3)}
	if err := p.ProbeRoundsBatch(bc, ids, []float64{0.5, 0.5}, at(0, 6, 0), out); err == nil {
		t.Fatal("untracked block should error")
	}
	if after := p.ExportState(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a failed call changed prober memory:\nbefore %+v\nafter  %+v", before, after)
	}
}

// groupWorld is the per-block-prober variant of batchWorld, mirroring the
// measurement pipeline: every block gets its own prober (its own walk seed,
// derived from the block id exactly as core.Pipeline derives it) over one
// shared network.
type groupWorld struct {
	net     *netsim.Network
	inj     *faults.Injector
	probers []*Prober
	ids     []netsim.BlockID
}

func buildGroupWorld(t *testing.T, withFaults bool) *groupWorld {
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
	limited := buildBlock(netsim.MakeBlockID(10, 3, 4), 0, 90, 0.5)
	limited.ReplyRateLimit = 2

	w := &groupWorld{net: n}
	if withFaults {
		w.inj = faults.New(faults.Config{
			Seed:              9,
			LossRate:          0.15,
			CorruptRate:       0.15,
			RateLimitPerRound: 6,
			ClockSkew:         30 * time.Millisecond,
			BlackoutEvery:     2 * time.Hour,
			BlackoutFor:       90 * time.Second,
			Epoch:             epoch,
		})
	}
	for _, blk := range []*netsim.Block{up, flaky, outage, limited} {
		n.AddBlock(blk)
		p := New(n, Config{
			RestartInterval:     5*time.Hour + 30*time.Minute,
			RestartDowntimeFrac: 0.5,
			Retry:               RetryConfig{MaxAttempts: 3, BaseBackoff: 2 * time.Second},
		}, 24^uint64(blk.ID))
		if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
			t.Fatal(err)
		}
		w.probers = append(w.probers, p)
		w.ids = append(w.ids, blk.ID)
	}
	if withFaults {
		n.SetTap(w.inj)
	}
	return w
}

// TestProbeRoundsBatchGroupMatchesScalar extends the equivalence gate to
// mixed-prober wavefronts: with one prober per block (the pipeline's
// arrangement), the grouped wavefront must reproduce sequential per-prober
// ProbeRound calls exactly — observations, prober memory, ProbesSent,
// network counters, and injector state.
func TestProbeRoundsBatchGroupMatchesScalar(t *testing.T) {
	for _, tc := range equivalenceCases {
		t.Run(tc.name, func(t *testing.T) {
			ws := buildGroupWorld(t, tc.withFaults)
			wb := buildGroupWorld(t, tc.withFaults)
			if tc.laneRetry {
				for _, w := range []*groupWorld{ws, wb} {
					armLaneRetry(w.net, w.ids)
					w.probers[0], w.probers[1] = w.probers[1], w.probers[0]
				}
			}

			bc := NewBatchContext()
			aOps := []float64{0.9, 0.4, 0.8, 0.3}
			outB := make([]RoundObs, len(wb.ids))

			var agg RoundObs
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
					obsS, err := ws.probers[i].ProbeRound(id, now, aOps[i])
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
				}
			}
			if agg.Positive == 0 || agg.Unreachable == 0 {
				t.Fatalf("fixture too tame: %+v", agg)
			}
			if tc.withFaults && (agg.Retries == 0 || agg.SendErrors == 0 || agg.RateLimited == 0) {
				t.Fatalf("fault fixture too tame: %+v", agg)
			}
			if tc.laneRetry {
				checkLaneRetry(t, retriedBesidePositive)
			}

			for i := range ws.probers {
				sState, bState := ws.probers[i].ExportState(), wb.probers[i].ExportState()
				if len(sState.Blocks) != 1 || len(bState.Blocks) != 1 || sState.Blocks[0] != bState.Blocks[0] {
					t.Errorf("prober %d state diverged: %+v vs %+v", i, sState.Blocks, bState.Blocks)
				}
				if s, b := ws.probers[i].ProbesSent(), wb.probers[i].ProbesSent(); s != b {
					t.Errorf("prober %d ProbesSent %d vs %d", i, s, b)
				}
			}
			if s, b := netCounters(ws.net), netCounters(wb.net); s != b {
				t.Errorf("network counters diverged: %v vs %v", s, b)
			}
			if tc.withFaults {
				if s, b := ws.inj.Totals(), wb.inj.Totals(); s != b {
					t.Errorf("injector totals diverged: %+v vs %+v", s, b)
				}
			}
		})
	}
}

// TestProbeRoundsBatchGroupErrors pins the group contract: shape
// mismatches, untracked blocks and probers on different networks error
// before any lane has begun its round, and an empty group is a no-op.
func TestProbeRoundsBatchGroupErrors(t *testing.T) {
	w := buildGroupWorld(t, false)
	bc := NewBatchContext()
	aOps := []float64{0.9, 0.4, 0.8, 0.3}
	out := make([]RoundObs, len(w.ids))
	if err := ProbeRoundsBatchGroup(bc, w.probers, w.ids, aOps, at(0, 0, 0), out); err != nil {
		t.Fatal(err)
	}
	before := w.probers[0].ExportState()

	if err := ProbeRoundsBatchGroup(bc, w.probers[:1], w.ids, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("shape mismatch should error")
	}
	badIDs := append([]netsim.BlockID(nil), w.ids...)
	badIDs[3] = netsim.MakeBlockID(1, 2, 3)
	if err := ProbeRoundsBatchGroup(bc, w.probers, badIDs, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("untracked block should error")
	}
	elsewhere := buildGroupWorld(t, false)
	mixed := append([]*Prober(nil), w.probers...)
	mixed[3] = elsewhere.probers[3]
	if err := ProbeRoundsBatchGroup(bc, mixed, w.ids, aOps, at(0, 0, 11), out); err == nil {
		t.Fatal("probers on different networks should error")
	}
	if after := w.probers[0].ExportState(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a failed call changed the first lane's prober memory:\nbefore %+v\nafter  %+v", before, after)
	}
	if err := ProbeRoundsBatchGroup(bc, nil, nil, nil, at(0, 0, 11), out); err != nil {
		t.Fatalf("empty group should be a no-op, got %v", err)
	}
}

// TestProbeRoundsBatchGroupAllocFree pins the grouped warm-round budget at
// zero allocations, matching the single-prober batch path. A fifth block of
// diurnal hosts is probed from 20:00 across midnight, so netsim drawing a
// new day's on-periods is inside the budget.
func TestProbeRoundsBatchGroupAllocFree(t *testing.T) {
	w := buildGroupWorld(t, false)
	office := &netsim.Block{ID: netsim.MakeBlockID(10, 3, 5), Seed: 5}
	var hosts netsim.Hosts
	for h := 1; h <= 40; h++ {
		hosts[h] = netsim.Diurnal{Phase: 22 * time.Hour, Duration: 6 * time.Hour, StartSigma: time.Hour, Seed: uint64(h)}
	}
	office.SetHosts(&hosts)
	w.net.AddBlock(office)
	p := New(w.net, Config{}, 5)
	if err := p.AddBlock(office.ID, office.EverActive()); err != nil {
		t.Fatal(err)
	}
	w.probers, w.ids = append(w.probers, p), append(w.ids, office.ID)

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
		t.Fatalf("grouped batched round allocates %.2f times, want 0", avg)
	}
}

// TestProbeRoundsBatchAllocFree pins the batched warm-round budget at zero
// allocations: after the first rounds grow every arena, a full batched
// round over four blocks — marshal the wavefront, cross the boundary once,
// classify, update beliefs — must not touch the heap. Runs without the
// fault tap: reply corruption is copy-on-corrupt by contract and so pays
// its allocation whatever the path.
func TestProbeRoundsBatchAllocFree(t *testing.T) {
	w := buildBatchWorld(t, false)
	bc := NewBatchContext()
	aOps := []float64{0.9, 0.4, 0.8, 0.3}
	out := make([]RoundObs, len(w.ids))

	round := 0
	probeAll := func() {
		now := epoch.Add(time.Duration(round) * 660 * time.Second)
		if err := w.p.ProbeRoundsBatch(bc, w.ids, aOps, now, out); err != nil {
			t.Fatal(err)
		}
		round++
	}
	for i := 0; i < 3; i++ {
		probeAll()
	}
	if avg := testing.AllocsPerRun(50, probeAll); avg != 0 {
		t.Fatalf("batched round allocates %.2f times, want 0", avg)
	}
	if bc.RetainedBytes() == 0 {
		t.Fatal("RetainedBytes should report the warm arenas")
	}
}
