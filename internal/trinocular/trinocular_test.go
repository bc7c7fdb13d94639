package trinocular

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
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
	if got := p.State().ID; got != netsim.MakeBlockID(10, 0, 0) {
		t.Fatalf("prober probes %s", got)
	}
	// A prober probes one block: a second one needs a prober of its own.
	if err := p.AddBlock(netsim.MakeBlockID(10, 0, 1), hosts); err == nil {
		t.Fatal("a second block was accepted")
	}
	if got := p.State().ID; got != netsim.MakeBlockID(10, 0, 0) {
		t.Fatalf("the refused block replaced the first: prober probes %s", got)
	}
}

func TestProbeRoundUnknownBlock(t *testing.T) {
	p := New(netsim.NewNetwork(1), Config{}, 1)
	if _, err := p.ProbeRound(at(0, 0, 0), 0.9); err == nil {
		t.Fatal("a prober without a block should error")
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
	obs, err := p.ProbeRound(at(0, 0, 0), 0.9)
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
	obs, err := p.ProbeRound(at(0, 12, 0), 0.95)
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
	obs2nd, err := p.ProbeRound(at(0, 12, 11), 0.95)
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
	obs2, err := p2.ProbeRound(at(0, 12, 0), 0.1)
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
		obs, err := p.ProbeRound(now, 0.9)
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
	if !p.State().Up {
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
		obs, err := p.ProbeRound(now, trueP)
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
		if _, err := p.ProbeRound(now, 0.9); err != nil {
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
	cfg := Config{RestartInterval: 5*time.Hour + 30*time.Minute}
	// Seed 128 puts the block inside the restart downtime window, so every
	// restart boundary is a cold round for it.
	p := New(n, cfg, 128)
	if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
		t.Fatal(err)
	}
	cold := 0
	rounds := 1000
	for r := 0; r < rounds; r++ {
		now := epoch.Add(time.Duration(r) * 660 * time.Second)
		obs, err := p.ProbeRound(now, 0.3)
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
		obs, err := p.ProbeRound(epoch.Add(time.Duration(r)*660*time.Second), 0.9)
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
	// With FixedProbes=1 and a dead block, each round probes the next host in
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
	p := New(n, Config{FixedProbes: 1}, 23)
	if err := p.AddBlock(blk.ID, hosts); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		if _, err := p.ProbeRound(epoch.Add(time.Duration(r)*660*time.Second), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	// 30 probes to 30 distinct hosts: total probes to block == 30 and the
	// walk is a permutation, so every host got exactly one.
	if got := p.ProbesSent(); got != 30 {
		t.Fatalf("probes = %d", got)
	}
}

// TestAddBlockWalkIsSeededShuffle pins AddBlock's walk to its definition,
// rand.New(rand.NewSource(int64(seed^id))).Shuffle of the ever-active list,
// for blocks of every size a prober accepts.
func TestAddBlockWalkIsSeededShuffle(t *testing.T) {
	const seed = 42
	for i := 0; i < 100; i++ {
		id := netsim.MakeBlockID(10, byte(i), byte(3*i))
		everActive := make([]byte, 0, 256)
		for h := 0; h < 256 && len(everActive) < MinEverActive+i*241/99; h += 1 + i%3 {
			everActive = append(everActive, byte(h))
		}
		p := New(netsim.NewNetwork(1), Config{}, seed)
		if err := p.AddBlock(id, everActive); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), everActive...)
		r := rand.New(rand.NewSource(int64(seed ^ uint64(id))))
		r.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		if !bytes.Equal(p.st.walk, want) {
			t.Fatalf("block %s (%d hosts): walk %v, want %v", id, len(want), p.st.walk, want)
		}
	}
}

// TestColdRoundMatchesSub holds isColdRound's integer-nanosecond form to the
// time.Time one it replaced, now.Sub(epoch) % RestartInterval <
// DefaultRound, over random epochs, nows before and after them (landing on
// and beside restart boundaries) and intervals, zero and negative included.
func TestColdRoundMatchesSub(t *testing.T) {
	bySub := func(now, epoch time.Time, interval time.Duration) bool {
		if interval <= 0 {
			return false
		}
		since := now.Sub(epoch)
		return since >= 0 && since%interval < timeseries.DefaultRound
	}
	r := rand.New(rand.NewSource(1))
	zones := []*time.Location{time.UTC, time.FixedZone("UTC-8", -8*3600), time.FixedZone("UTC+5:45", 20700)}
	for i := 0; i < 20000; i++ {
		// Epochs from 1970 to 2150; nows within ±100 years of them.
		ep := time.Unix(r.Int63n(180*365*86400), r.Int63n(1e9)).In(zones[i%len(zones)])
		interval := time.Duration(r.Int63n(int64(48*time.Hour))) - time.Hour
		if i%7 == 0 {
			interval = 0
		}
		jitter := []time.Duration{-1, 0, 1, timeseries.DefaultRound - 1, timeseries.DefaultRound}[r.Intn(5)]
		var now time.Time
		switch i % 5 {
		case 0: // anywhere, past or future
			now = ep.Add(time.Duration(r.Int63n(int64(200*365*24*time.Hour))) - 100*365*24*time.Hour)
		case 1, 2: // on, just before or just after a restart boundary
			k := time.Duration(r.Int63n(10000) - 100)
			now = ep.Add(k*interval + jitter)
		case 3: // beside the epoch itself
			now = ep.Add(jitter)
		default: // within a few rounds of the epoch
			now = ep.Add(time.Duration(r.Int63n(int64(4*timeseries.DefaultRound))) - 2*timeseries.DefaultRound)
		}
		p := New(nil, Config{RestartInterval: interval}, 1)
		p.PinEpoch(ep)
		if got, want := p.isColdRound(now), bySub(now, ep, interval); got != want {
			t.Fatalf("epoch %v, now %v, interval %v: isColdRound = %v, want %v", ep, now, interval, got, want)
		}
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
		if _, err := p.ProbeRound(now, 0.7); err != nil {
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
			obs, err := p.ProbeRound(at(0, 0, r*11), 0.3)
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
		obs, err := p.ProbeRound(epoch.Add(time.Duration(r)*660*time.Second), 0.9)
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
