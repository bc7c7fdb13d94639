package netsim_test

// The truth plan behind Block.TrueCounts against the reference loop. The
// tests live outside the package so they can enumerate generated worlds
// (internal/world imports netsim).

import (
	"sync"
	"testing"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

const round = 660 * time.Second

// oddHours is a behaviour the plan knows nothing about.
type oddHours struct{}

func (oddHours) Up(t time.Time) bool { return t.Hour()%2 == 1 }
func (oddHours) EverActive() bool    { return true }

// everyBranchBlock holds one host (or a few) for each way the plan sorts
// or evaluates a behaviour; hosts not named stay nil.
func everyBranchBlock() *netsim.Block {
	b := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 8), Seed: 3, ReplyRateLimit: 30}
	h := 3
	add := func(bh netsim.Behavior) {
		b.Behaviors[h] = bh
		h += 2
	}
	for i := 0; i < 5; i++ {
		add(netsim.AlwaysOn{})
	}
	add(netsim.Dead{})
	// Never on by Duration, though the duration noise alone would open
	// on-periods.
	add(netsim.Diurnal{Phase: 9 * time.Hour, DurationSigma: 2 * time.Hour, Seed: 1})
	for i := 0; i < 12; i++ {
		// Noisy on-periods, a third of which spill past midnight.
		add(netsim.Diurnal{
			Phase:         time.Duration(6+i%3*8) * time.Hour,
			Duration:      9 * time.Hour,
			StartSigma:    45 * time.Minute,
			DurationSigma: 90 * time.Minute,
			Seed:          uint64(100 + i),
		})
	}
	add(netsim.Diurnal{Phase: 20 * time.Hour, Duration: 8 * time.Hour, Seed: 7})
	for i := 0; i < 6; i++ {
		// The campus model: on-period hosts answer with probability UpProb.
		add(netsim.Diurnal{Phase: 8 * time.Hour, Duration: 10 * time.Hour, StartSigma: 30 * time.Minute, UpProb: 0.55, Seed: uint64(200 + i)})
	}
	add(netsim.Diurnal{Phase: 8 * time.Hour, Duration: 10 * time.Hour, UpProb: 1.5, Seed: 9})
	add(netsim.Intermittent{P: 0, Seed: 1})
	add(netsim.Intermittent{P: -0.5, Seed: 2})
	add(netsim.Intermittent{P: 1, Seed: 3})
	add(netsim.Intermittent{P: 1.5, Seed: 4})
	for i := 0; i < 8; i++ {
		add(netsim.Intermittent{P: 0.2 + 0.08*float64(i), Seed: uint64(300 + i)})
		add(netsim.Intermittent{P: 0.35, Quantum: 17 * time.Minute, Seed: uint64(400 + i)})
	}
	add(netsim.Periodic{Period: 7 * time.Hour, Duty: 0.5, Offset: 90 * time.Minute})
	add(netsim.Periodic{})
	add(oddHours{})
	// A pointer is not the plan's Diurnal column type: remainder.
	add(&netsim.Diurnal{Phase: 3 * time.Hour, Duration: 5 * time.Hour, StartSigma: time.Hour, Seed: 11})
	b.Outages = []netsim.Interval{{Start: netsim.SimEpoch.Add(26 * time.Hour), End: netsim.SimEpoch.Add(29 * time.Hour)}}
	return b
}

// wanderingInstants walks a week of rounds that starts three days before
// the simulation epoch (negative days), then visits off-grid instants,
// midnights to the nanosecond, and finally jumps about so that consecutive
// queries cross days backwards as well as forwards.
func wanderingInstants() []time.Time {
	base := netsim.SimEpoch.Add(-3 * 24 * time.Hour)
	var ts []time.Time
	for r := 0; r < 7*131; r++ {
		ts = append(ts, base.Add(time.Duration(r)*round))
	}
	for i := 0; i < 400; i++ {
		ts = append(ts, base.Add(time.Duration(i)*(19*time.Minute+7*time.Second+13)))
	}
	for d := -3; d <= 3; d++ {
		midnight := netsim.SimEpoch.Add(time.Duration(d) * 24 * time.Hour)
		ts = append(ts, midnight.Add(-1), midnight, midnight.Add(1))
	}
	n := len(ts)
	for i := 0; i < n; i++ {
		ts = append(ts, ts[i*389%n])
	}
	return ts
}

// checkAgainstReference compares the plan with the reference loop at t.
func checkAgainstReference(t *testing.T, blk *netsim.Block, at time.Time) (up, ever int) {
	t.Helper()
	up, ever = blk.TrueCounts(at)
	if refUp, refEver := blk.TrueCountsRef(at); up != refUp || ever != refEver {
		t.Fatalf("%s at %v: plan says %d of %d up, reference %d of %d", blk.ID, at, up, ever, refUp, refEver)
	}
	want := 0.0
	if ever > 0 {
		want = float64(up) / float64(ever)
	}
	if got := blk.TrueA(at); got != want {
		t.Fatalf("%s at %v: TrueA = %v, want %d/%d", blk.ID, at, got, up, ever)
	}
	return up, ever
}

func TestTruthPlanMatchesReference(t *testing.T) {
	t.Run("every-branch", func(t *testing.T) {
		blk := everyBranchBlock()
		netsim.NewNetwork(1).AddBlock(blk)
		seen := make(map[int]bool)
		for _, at := range wanderingInstants() {
			up, ever := checkAgainstReference(t, blk, at)
			if ever != 46 {
				t.Fatalf("ever = %d, want 46", ever)
			}
			seen[up] = true
		}
		if len(seen) < 20 || !seen[0] {
			t.Fatalf("instants exercise only %d distinct up-counts (outage seen: %v)", len(seen), seen[0])
		}
	})

	for _, seed := range []uint64{1, 2} {
		w, err := world.Generate(world.Config{Blocks: 30, Seed: seed, OutagesPerBlockWeek: 2})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
		diurnal, dark := 0, 0
		for _, info := range w.Blocks {
			if info.DesignedDiurnal {
				diurnal++
			}
			blk := w.Net.Block(info.ID)
			for r := 0; r < 14*131; r++ {
				at := start.Add(time.Duration(r) * round)
				if up, _ := checkAgainstReference(t, blk, at); up == 0 && blk.InOutage(at) {
					dark++
				}
			}
		}
		if diurnal == 0 || dark == 0 {
			t.Fatalf("world %d: %d diurnal blocks, %d block-rounds in outage; the comparison needs both", seed, diurnal, dark)
		}
	}
}

// echoPacket is an IPv4-wrapped echo request to dst.
func echoPacket(t *testing.T, dst netsim.Addr, seq uint16) []byte {
	t.Helper()
	echo, err := (&icmp.Echo{ID: 1, Seq: seq}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hdr := ipv4.Header{ID: seq, TTL: 64, Protocol: ipv4.ProtoICMP, Src: ipv4.Addr{198, 51, 100, 1}, Dst: ipv4.Addr(dst.IP())}
	pkt, err := hdr.Marshal(echo)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestReAddBlockSeesNewBehaviors pins what a block caches from Behaviors
// to its registration: a literal follows its fields call by call, a
// registered block answers — to surveys and to probes — for the Behaviors
// it was last registered with.
func TestReAddBlockSeesNewBehaviors(t *testing.T) {
	noon := netsim.SimEpoch.Add(12 * time.Hour)
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 7)}
	for h := 0; h < 10; h++ {
		blk.Behaviors[h] = netsim.AlwaysOn{}
	}
	for h := 10; h < 40; h++ {
		blk.Behaviors[h] = netsim.Diurnal{Phase: 20 * time.Hour, Duration: 2 * time.Hour, Seed: uint64(h)}
	}
	if up, ever := blk.TrueCounts(noon); up != 10 || ever != 40 {
		t.Fatalf("literal: %d of %d, want 10 of 40", up, ever)
	}
	blk.Behaviors[40] = netsim.AlwaysOn{}
	if up, ever := blk.TrueCounts(noon); up != 11 || ever != 41 {
		t.Fatalf("literal after edit: %d of %d, want 11 of 41", up, ever)
	}

	n := netsim.NewNetwork(1)
	n.AddBlock(blk)
	if up, ever := blk.TrueCounts(noon); up != 11 || ever != 41 {
		t.Fatalf("registered: %d of %d, want 11 of 41", up, ever)
	}
	if !n.DeliverIP(echoPacket(t, blk.ID.Addr(20), 1), noon).Timeout {
		t.Fatal("host 20 answered at noon, hours before its on-period")
	}

	for h := 10; h < 40; h++ {
		blk.Behaviors[h] = netsim.Diurnal{Phase: 10 * time.Hour, Duration: 4 * time.Hour, Seed: uint64(h)}
	}
	blk.Behaviors[41] = netsim.Intermittent{P: 1}
	n.AddBlock(blk)
	if up, ever := blk.TrueCounts(noon); up != 42 || ever != 42 {
		t.Fatalf("re-registered: %d of %d, want 42 of 42", up, ever)
	}
	checkAgainstReference(t, blk, noon)
	if n.DeliverIP(echoPacket(t, blk.ID.Addr(20), 2), noon).Timeout {
		t.Fatal("host 20 silent at noon, inside its new on-period")
	}
}

// TestTruthPlanConcurrent surveys one block from several goroutines, each
// on its own day so the day table is swapped under the others' feet, while
// another goroutine delivers probes to the same block. Under -race this
// pins that TrueCounts shares no unsynchronized state with delivery (the
// probe memo and the rate limiter) or with itself.
func TestTruthPlanConcurrent(t *testing.T) {
	blk := everyBranchBlock()
	n := netsim.NewNetwork(1)
	n.AddBlock(blk)

	const surveyors, rounds = 4, 131
	dayStart := func(g int) time.Time { return netsim.SimEpoch.Add(time.Duration(g) * 24 * time.Hour) }
	var want [surveyors][rounds][2]int
	for g := range want {
		for r := range want[g] {
			want[g][r][0], want[g][r][1] = blk.TrueCountsRef(dayStart(g).Add(time.Duration(r) * round))
		}
	}

	var probes [][]byte
	for h := 0; h < 256; h += 3 {
		probes = append(probes, echoPacket(t, blk.ID.Addr(byte(h)), uint16(h)))
	}

	var wg sync.WaitGroup
	for g := 0; g < surveyors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				up, ever := blk.TrueCounts(dayStart(g).Add(time.Duration(r) * round))
				if up != want[g][r][0] || ever != want[g][r][1] {
					t.Errorf("day %d round %d: %d of %d, want %d of %d", g, r, up, ever, want[g][r][0], want[g][r][1])
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf netsim.ReplyBuffer
		for r := 0; r < rounds; r++ {
			for _, pkt := range probes {
				n.DeliverIPInto(&buf, pkt, dayStart(1).Add(time.Duration(r)*round))
			}
		}
	}()
	wg.Wait()
	if n.Stats.Replies.Load() == 0 {
		t.Fatal("no probe was answered: delivery did not exercise the block")
	}
}

func TestTrueAWarmPlanAllocatesNothing(t *testing.T) {
	blk := everyBranchBlock()
	netsim.NewNetwork(1).AddBlock(blk)
	morning := netsim.SimEpoch.Add(50 * time.Hour)
	blk.TrueA(morning)
	r := 0
	allocs := testing.AllocsPerRun(100, func() {
		r++
		blk.TrueA(morning.Add(time.Duration(r%60) * round))
	})
	if allocs != 0 {
		t.Fatalf("same-day TrueA on a warm plan allocates %v times, want 0", allocs)
	}
}

var sinkCounts int

// BenchmarkTrueA sweeps a week of rounds over a registered block with the
// generator's diurnal mix, day rollovers included; reference is the same
// sweep through the host-by-host loop.
func BenchmarkTrueA(b *testing.B) {
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 6)}
	for h := 1; h < 41; h++ {
		blk.Behaviors[h] = netsim.AlwaysOn{}
	}
	for h := 41; h < 141; h++ {
		blk.Behaviors[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 9 * time.Hour, StartSigma: 20 * time.Minute, DurationSigma: 40 * time.Minute, Seed: uint64(h)}
	}
	for h := 141; h < 171; h++ {
		blk.Behaviors[h] = netsim.Intermittent{P: 0.6, Seed: uint64(h)}
	}
	netsim.NewNetwork(1).AddBlock(blk)
	start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
	const week = 7 * 131
	for _, bc := range []struct {
		name   string
		counts func(time.Time) (int, int)
	}{{"plan", blk.TrueCounts}, {"reference", blk.TrueCountsRef}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				up, _ := bc.counts(start.Add(time.Duration(i%week) * round))
				sinkCounts += up
			}
		})
	}
}
