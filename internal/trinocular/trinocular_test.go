package trinocular

import (
	"errors"
	"math"
	"testing"
	"time"

	"sleepnet/internal/netsim"
)

var epoch = time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC)

func at(d int, h, m int) time.Time {
	return epoch.AddDate(0, 0, d).Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute)
}

// buildBlock makes a /24 with nOn always-on hosts and nInt intermittent
// hosts of probability pInt.
func buildBlock(id netsim.BlockID, nOn, nInt int, pInt float64) *netsim.Block {
	b := &netsim.Block{ID: id, Seed: uint64(id)}
	var hosts netsim.Hosts
	h := 0
	for ; h < nOn; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	for ; h < nOn+nInt; h++ {
		hosts[h] = netsim.Intermittent{P: pInt, Seed: uint64(id) + uint64(h)}
	}
	b.SetHosts(&hosts)
	return b
}

func TestAddBlockSparseRejected(t *testing.T) {
	n := netsim.NewNetwork(1)
	p := New(n, Config{}, 1)
	var hosts []byte
	for i := 0; i < 14; i++ {
		hosts = append(hosts, byte(i))
	}
	if err := p.AddBlock(netsim.MakeBlockID(10, 0, 0), hosts); !errors.Is(err, ErrTooSparse) {
		t.Fatalf("want ErrTooSparse, got %v", err)
	}
	hosts = append(hosts, 14)
	if err := p.AddBlock(netsim.MakeBlockID(10, 0, 0), hosts); err != nil {
		t.Fatal(err)
	}
	if p.states[netsim.MakeBlockID(10, 0, 0)] == nil || len(p.states) != 1 {
		t.Fatal("tracking state wrong")
	}
}

func TestProbeRoundUnknownBlock(t *testing.T) {
	p := New(netsim.NewNetwork(1), Config{}, 1)
	if _, err := p.ProbeRound(netsim.MakeBlockID(1, 2, 3), at(0, 0, 0), 0.9); err == nil {
		t.Fatal("unknown block should error")
	}
}

func TestHighAvailabilityOneProbe(t *testing.T) {
	// Fully up block with high A: first probe positive, round ends at t=1.
	n := netsim.NewNetwork(1)
	blk := buildBlock(netsim.MakeBlockID(10, 0, 1), 100, 0, 0)
	n.AddBlock(blk)
	p := New(n, Config{}, 7)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	obs, err := p.ProbeRound(blk.ID, at(0, 0, 0), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Total != 1 || obs.Positive != 1 || !obs.Up {
		t.Fatalf("obs = %+v", obs)
	}
}

func TestDownBlockFewProbesWithHighAOp(t *testing.T) {
	// A block in outage with a high A estimate needs only a few negatives
	// to conclude "down" — the paper's point about overestimating Âo.
	n := netsim.NewNetwork(2)
	blk := buildBlock(netsim.MakeBlockID(10, 0, 2), 100, 0, 0)
	blk.Outages = []netsim.Interval{{Start: at(0, 0, 0), End: at(9, 0, 0)}}
	n.AddBlock(blk)
	p := New(n, Config{}, 7)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	obs, err := p.ProbeRound(blk.ID, at(0, 12, 0), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Positive != 0 {
		t.Fatalf("obs = %+v", obs)
	}
	if obs.Total > 5 {
		t.Fatalf("high Âo should conclude down quickly, used %d probes", obs.Total)
	}
	// Debounce: the down declaration lands on the second conclusive round.
	obs2nd, err := p.ProbeRound(blk.ID, at(0, 12, 11), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if obs2nd.Up || !obs2nd.Changed {
		t.Fatalf("second round should declare down: %+v", obs2nd)
	}
	// With a low Âo the same conclusion takes many more probes.
	p2 := New(n, Config{}, 8)
	if err := p2.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	obs2, err := p2.ProbeRound(blk.ID, at(0, 12, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if obs2.Total <= obs.Total {
		t.Fatalf("low Âo should take more probes: %d vs %d", obs2.Total, obs.Total)
	}
}

func TestOutageDetectionAndRecovery(t *testing.T) {
	n := netsim.NewNetwork(3)
	blk := buildBlock(netsim.MakeBlockID(10, 0, 3), 80, 0, 0)
	blk.Outages = []netsim.Interval{{Start: at(1, 0, 0), End: at(1, 6, 0)}}
	n.AddBlock(blk)
	p := New(n, Config{}, 9)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	var transitions []bool
	for r := 0; r < 400; r++ {
		now := at(0, 20, 0).Add(time.Duration(r) * 660 * time.Second)
		obs, err := p.ProbeRound(blk.ID, now, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if obs.Changed {
			transitions = append(transitions, obs.Up)
		}
	}
	// Expect exactly: down at outage start, up at outage end.
	// (Initial belief settles to up without a Changed event because blocks
	// start in the up state.)
	if len(transitions) != 2 || transitions[0] != false || transitions[1] != true {
		t.Fatalf("transitions = %v, want [down up]", transitions)
	}
	if st := p.states[blk.ID]; st == nil || !st.up {
		t.Fatal("block should end up")
	}
}

func TestObservationUnbiasedForIntermittentBlock(t *testing.T) {
	// E[p]/E[t] should estimate A for a block of intermittent addresses.
	n := netsim.NewNetwork(4)
	const trueP = 0.4
	blk := buildBlock(netsim.MakeBlockID(10, 0, 4), 0, 200, trueP)
	n.AddBlock(blk)
	p := New(n, Config{}, 11)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	var sp, stt int
	for r := 0; r < 4000; r++ {
		now := epoch.Add(time.Duration(r) * 660 * time.Second)
		obs, err := p.ProbeRound(blk.ID, now, trueP)
		if err != nil {
			t.Fatal(err)
		}
		sp += obs.Positive
		stt += obs.Total
	}
	got := float64(sp) / float64(stt)
	if math.Abs(got-trueP) > 0.03 {
		t.Fatalf("sum(p)/sum(t) = %v, want ~%v", got, trueP)
	}
}

func TestProbeBudgetUnderTwentyPerHour(t *testing.T) {
	// The headline operational claim: high-availability blocks cost well
	// under 20 probes/hour/block (5.45 rounds per hour, ~1 probe per round).
	n := netsim.NewNetwork(5)
	blk := buildBlock(netsim.MakeBlockID(10, 0, 5), 100, 0, 0)
	n.AddBlock(blk)
	p := New(n, Config{}, 13)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	hours := 24
	rounds := hours * 3600 / 660
	for r := 0; r <= rounds; r++ {
		now := epoch.Add(time.Duration(r) * 660 * time.Second)
		if _, err := p.ProbeRound(blk.ID, now, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	rate := float64(p.ProbesSent()) / float64(hours)
	if rate >= 20 {
		t.Fatalf("probe rate = %v per hour, want < 20", rate)
	}
}

func TestColdRoundsSingleProbe(t *testing.T) {
	n := netsim.NewNetwork(6)
	// Intermittent block where a warm round would normally use >1 probe.
	blk := buildBlock(netsim.MakeBlockID(10, 0, 6), 0, 100, 0.3)
	n.AddBlock(blk)
	cfg := Config{RestartInterval: 5*time.Hour + 30*time.Minute, RestartDowntimeFrac: 1}
	p := New(n, cfg, 17)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	cold := 0
	rounds := 1000
	for r := 0; r < rounds; r++ {
		now := epoch.Add(time.Duration(r) * 660 * time.Second)
		obs, err := p.ProbeRound(blk.ID, now, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if obs.Cold {
			cold++
			if obs.Total != 1 {
				t.Fatalf("cold round used %d probes", obs.Total)
			}
		}
	}
	// 1000 rounds * 660 s = 7.6 days; restarts every 5.5 h => ~33 cold rounds.
	if cold < 25 || cold > 45 {
		t.Fatalf("cold rounds = %d, want ~33", cold)
	}
}

func TestNoRestartMeansNoColdRounds(t *testing.T) {
	n := netsim.NewNetwork(7)
	blk := buildBlock(netsim.MakeBlockID(10, 0, 7), 50, 0, 0)
	n.AddBlock(blk)
	p := New(n, Config{}, 19)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		obs, err := p.ProbeRound(blk.ID, epoch.Add(time.Duration(r)*660*time.Second), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if obs.Cold {
			t.Fatal("cold round without RestartInterval")
		}
	}
}

func TestUpdateBelief(t *testing.T) {
	// A positive response is near-conclusive evidence of up.
	b := updateBelief(0.5, true, 0.5)
	if b < 0.99 {
		t.Fatalf("positive update = %v, want > 0.99", b)
	}
	// A negative response lowers belief by factor (1-a) in odds.
	b = updateBelief(0.5, false, 0.9)
	if b > 0.1 {
		t.Fatalf("negative update with high A = %v, want <= 0.1", b)
	}
	b = updateBelief(0.5, false, 0.1)
	if b < 0.4 {
		t.Fatalf("negative update with low A = %v, want weak evidence", b)
	}
}

func TestWalkCoversAllHosts(t *testing.T) {
	// With MaxProbes=1 and a dead block, each round probes the next host in
	// the walk: after len(E) rounds every host must have been probed once.
	n := netsim.NewNetwork(8)
	// The block is given no hosts, so none answers; all thirty are still
	// "ever active" per the prober's history.
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 0, 8), Seed: 3}
	var hosts []byte
	for h := 0; h < 30; h++ {
		hosts = append(hosts, byte(h))
	}
	n.AddBlock(blk)
	p := New(n, Config{MaxProbesPerRound: 1}, 23)
	if err := p.AddBlock(blk.ID, hosts); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		if _, err := p.ProbeRound(blk.ID, epoch.Add(time.Duration(r)*660*time.Second), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	// 30 probes to 30 distinct hosts: total probes to block == 30 and the
	// walk is a permutation, so every host got exactly one.
	if got := n.ProbesToBlock(blk.ID); got != 30 {
		t.Fatalf("probes = %d", got)
	}
}

func BenchmarkProbeRound(b *testing.B) {
	n := netsim.NewNetwork(10)
	blk := buildBlock(netsim.MakeBlockID(10, 1, 0), 100, 100, 0.5)
	n.AddBlock(blk)
	p := New(n, Config{}, 29)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := epoch.Add(time.Duration(i) * 660 * time.Second)
		if _, err := p.ProbeRound(blk.ID, now, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGatewayUnreachableSpeedsDetection(t *testing.T) {
	// A block whose gateway answers outage probes with
	// destination-unreachable: the prober should conclude "down" with
	// fewer probes than a silent outage needs, and record the
	// unreachables.
	mk := func(gwProb float64) (int, int) {
		n := netsim.NewNetwork(11)
		blk := buildBlock(netsim.MakeBlockID(10, 0, 30), 100, 0, 0)
		blk.GatewayUnreachableProb = gwProb
		blk.Outages = []netsim.Interval{{Start: at(0, 0, 0), End: at(2, 0, 0)}}
		n.AddBlock(blk)
		p := New(n, Config{}, 31)
		if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
			t.Fatal(err)
		}
		// Probe during the outage with a modest Âo (weak silence evidence).
		var probes, unreach int
		for r := 0; r < 4; r++ {
			obs, err := p.ProbeRound(blk.ID, at(0, 0, r*11), 0.3)
			if err != nil {
				t.Fatal(err)
			}
			probes += obs.Total
			unreach += obs.Unreachable
		}
		return probes, unreach
	}
	silentProbes, silentUnreach := mk(0)
	gwProbes, gwUnreach := mk(1)
	if silentUnreach != 0 {
		t.Fatalf("silent outage produced %d unreachables", silentUnreach)
	}
	if gwUnreach == 0 {
		t.Fatal("gateway outage produced no unreachables")
	}
	if gwProbes >= silentProbes {
		t.Fatalf("unreachables should reduce probing: %d vs %d", gwProbes, silentProbes)
	}
}

func TestFixedProbesPolicy(t *testing.T) {
	n := netsim.NewNetwork(12)
	blk := buildBlock(netsim.MakeBlockID(10, 0, 40), 100, 0, 0)
	n.AddBlock(blk)
	p := New(n, Config{FixedProbes: 7}, 41)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		obs, err := p.ProbeRound(blk.ID, epoch.Add(time.Duration(r)*660*time.Second), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		// Fully-up block: adaptive would stop at 1; fixed sends exactly 7.
		if obs.Total != 7 {
			t.Fatalf("round %d used %d probes, want 7", r, obs.Total)
		}
		if obs.Positive != 7 {
			t.Fatalf("round %d positives = %d", r, obs.Positive)
		}
		if !obs.Up {
			t.Fatal("block should be up")
		}
	}
}
