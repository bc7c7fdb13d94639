package netsim_test

// The host table behind Block.TrueCounts against the reference loop. The
// tests live outside the package so they can enumerate generated worlds
// (internal/world imports netsim).

import (
	"math"
	"sync"
	"testing"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

const round = 660 * time.Second

// oddHours is a behaviour the host table knows nothing about.
type oddHours struct{}

func (oddHours) Up(t time.Time) bool { return t.Hour()%2 == 1 }
func (oddHours) EverActive() bool    { return true }

// never is a behaviour outside E(b) that is not nil.
type never struct{}

func (never) Up(time.Time) bool { return false }
func (never) EverActive() bool  { return false }

// everyBranchBlock holds one host (or a few) for each way the host table
// sorts or evaluates a behaviour; hosts not named stay nil. The spec the
// block was given comes back with it.
func everyBranchBlock() (*netsim.Block, *netsim.Hosts) {
	b := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 8), Seed: 3, ReplyRateLimit: 30}
	var hosts netsim.Hosts
	h := 3
	add := func(bh netsim.Behavior) {
		hosts[h] = bh
		h += 2
	}
	for i := 0; i < 5; i++ {
		add(netsim.AlwaysOn{})
	}
	add(never{})
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
	// A pointer is not the Diurnal column's type: remainder.
	add(&netsim.Diurnal{Phase: 3 * time.Hour, Duration: 5 * time.Hour, StartSigma: time.Hour, Seed: 11})
	b.SetHosts(&hosts)
	b.Outages = []netsim.Interval{{Start: netsim.SimEpoch.Add(26 * time.Hour), End: netsim.SimEpoch.Add(29 * time.Hour)}}
	return b, &hosts
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

// checkAgainstReference compares the table with the reference loop over
// the block's spec at t.
func checkAgainstReference(t *testing.T, blk *netsim.Block, hosts *netsim.Hosts, at time.Time) (up, ever int) {
	t.Helper()
	up, ever = blk.TrueCounts(at)
	if refUp, refEver := blk.TrueCountsRef(hosts, at); up != refUp || ever != refEver {
		t.Fatalf("%s at %v: table says %d of %d up, reference %d of %d", blk.ID, at, up, ever, refUp, refEver)
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

// checkSeries compares a TrueSeries of n instants start + r·period, bit for
// bit, with the reference loop and with TrueA at each instant.
func checkSeries(t *testing.T, blk *netsim.Block, hosts *netsim.Hosts, start time.Time, period time.Duration, n int) []float64 {
	t.Helper()
	got := make([]float64, n)
	blk.TrueSeries(start, period, got)
	for r, a := range got {
		at := start.Add(time.Duration(r) * period)
		up, ever := blk.TrueCountsRef(hosts, at)
		want := 0.0
		if ever > 0 {
			want = float64(up) / float64(ever)
		}
		if math.Float64bits(a) != math.Float64bits(want) {
			t.Fatalf("%s, survey from %v every %v, instant %d of %d: %v, reference %d of %d", blk.ID, start, period, r, n, a, up, ever)
		}
		if pa := blk.TrueA(at); math.Float64bits(pa) != math.Float64bits(a) {
			t.Fatalf("%s at %v: TrueSeries says %v, TrueA %v", blk.ID, at, a, pa)
		}
	}
	return got
}

// surveyPeriods are the survey spacings the series checks walk: finer than
// the round quantum, the round, coarser, and coarser than a day, where the
// kernel must skip days (a day's yesterday is day−1, not the previous
// instant's day).
var surveyPeriods = []time.Duration{time.Minute, round, time.Hour, 25 * time.Hour, 49 * time.Hour}

func TestTruthPlanMatchesReference(t *testing.T) {
	t.Run("every-branch", func(t *testing.T) {
		blk, hosts := everyBranchBlock()
		netsim.NewNetwork(1).AddBlock(blk)
		seen := make(map[int]bool)
		for _, at := range wanderingInstants() {
			up, ever := checkAgainstReference(t, blk, hosts, at)
			if ever != 46 {
				t.Fatalf("ever = %d, want 46", ever)
			}
			seen[up] = true
		}
		if len(seen) < 20 || !seen[0] {
			t.Fatalf("instants exercise only %d distinct up-counts (outage seen: %v)", len(seen), seen[0])
		}
	})

	t.Run("every-branch-series", func(t *testing.T) {
		blk, hosts := everyBranchBlock()
		netsim.NewNetwork(1).AddBlock(blk)
		starts := []time.Time{
			// Before the epoch (negative days) and off the round grid.
			netsim.SimEpoch.Add(-3*24*time.Hour + 7*time.Minute + 13*time.Second + 17),
			// On the grid, the outage in the first two days.
			netsim.SimEpoch.Add(-11 * round),
		}
		for _, start := range starts {
			for _, period := range surveyPeriods {
				for _, n := range []int{0, 1, 2, 917} {
					checkSeries(t, blk, hosts, start, period, n)
				}
			}
		}
	})

	for _, seed := range []uint64{42, 7, 1234} {
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
			a := checkSeries(t, blk, blk.HostSpec(), start, round, 14*131)
			for r, v := range a {
				if v == 0 && blk.InOutage(start.Add(time.Duration(r)*round)) {
					dark++
				}
			}
		}
		if diurnal == 0 || dark == 0 {
			t.Fatalf("world %d: %d diurnal blocks, %d block-rounds in outage; the comparison needs both", seed, diurnal, dark)
		}
	}

	t.Run("campus", func(t *testing.T) {
		c, err := world.GenerateCampus(world.CampusConfig{Wireless: 8, Dynamic: 4, General: 12, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
		for _, cb := range c.Blocks {
			blk := c.Net.Block(cb.ID)
			checkSeries(t, blk, blk.HostSpec(), start, round, 7*131)
		}
	})
}

// FuzzTrueSeries compares surveys of the every-branch block, at any start,
// positive period and length, with the reference loop. The seeds run under
// plain go test.
func FuzzTrueSeries(f *testing.F) {
	f.Add(int64(0), int64(round), uint16(131))
	f.Add(int64(-3*24*time.Hour+17), int64(time.Minute), uint16(600))
	f.Add(int64(25*time.Hour+1), int64(49*time.Hour), uint16(40))
	f.Add(int64(26*time.Hour-3*time.Minute), int64(7*time.Second), uint16(300))
	f.Add(int64(-86400*time.Second), int64(time.Nanosecond), uint16(3))
	blk, hosts := everyBranchBlock()
	netsim.NewNetwork(1).AddBlock(blk)
	f.Fuzz(func(t *testing.T, offset, period int64, n uint16) {
		const span = int64(30 * 24 * time.Hour)
		offset %= span
		period = 1 + (period&math.MaxInt64)%int64(100*time.Hour)
		checkSeries(t, blk, hosts, netsim.SimEpoch.Add(time.Duration(offset)), time.Duration(period), int(n%1024))
	})
}

// echoPacket is an IPv4-wrapped echo request to dst.
func echoPacket(t *testing.T, dst netsim.Addr, seq uint16) []byte {
	t.Helper()
	echo, err := (&icmp.Echo{ID: 1, Seq: seq}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := ipv4.Header{ID: seq, TTL: 64, Protocol: ipv4.ProtoICMP, Src: ipv4.Addr{198, 51, 100, 1}, Dst: ipv4.Addr(dst.IP())}
	pkt, err := hdr.MarshalAppend(nil, echo)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestReAddBlockSeesNewBehaviors pins a block's answers — to surveys and
// to probes — to the hosts it was last given: nothing derived from an
// earlier spec (delivery's day memo, ground truth's day table, the route a
// batch buffer cached) survives SetHosts and a fresh AddBlock.
func TestReAddBlockSeesNewBehaviors(t *testing.T) {
	noon := netsim.SimEpoch.Add(12 * time.Hour)
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 7)}
	if up, ever := blk.TrueCounts(noon); up != 0 || ever != 0 || blk.EverActive() != nil {
		t.Fatalf("no hosts yet: %d of %d, E(b) = %v", up, ever, blk.EverActive())
	}
	var hosts netsim.Hosts
	for h := 0; h < 10; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	for h := 10; h < 40; h++ {
		hosts[h] = netsim.Diurnal{Phase: 20 * time.Hour, Duration: 2 * time.Hour, Seed: uint64(h)}
	}
	blk.SetHosts(&hosts)
	hosts[40] = netsim.AlwaysOn{} // the spec is not retained: no effect
	if up, ever := blk.TrueCounts(noon); up != 10 || ever != 40 || blk.NumEverActive() != 40 {
		t.Fatalf("first hosts: %d of %d, want 10 of 40", up, ever)
	}

	n := netsim.NewNetwork(1)
	n.AddBlock(blk)
	var bb netsim.BatchBuffer
	probe20 := func(seq uint16) bool {
		return !n.DeliverBatch(&bb, [][]byte{echoPacket(t, blk.ID.Addr(20), seq)}, noon)[0].Timeout
	}
	if probe20(1) {
		t.Fatal("host 20 answered at noon, hours before its on-period")
	}

	for h := 10; h < 40; h++ {
		hosts[h] = netsim.Diurnal{Phase: 10 * time.Hour, Duration: 4 * time.Hour, Seed: uint64(h)}
	}
	hosts[41] = netsim.Intermittent{P: 1}
	blk.SetHosts(&hosts)
	n.AddBlock(blk)
	if up, ever := blk.TrueCounts(noon); up != 42 || ever != 42 {
		t.Fatalf("new hosts: %d of %d, want 42 of 42", up, ever)
	}
	checkAgainstReference(t, blk, &hosts, noon)
	if !probe20(2) {
		t.Fatal("host 20 silent at noon, inside its new on-period")
	}
}

// TestReAddBlockSeesNewHops: the path length delivery charges against the
// TTL is derived afresh from Hops by every AddBlock.
func TestReAddBlockSeesNewHops(t *testing.T) {
	noon := netsim.SimEpoch.Add(12 * time.Hour)
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 5), Hops: 40}
	blk.SetHosts(&netsim.Hosts{1: netsim.AlwaysOn{}})
	n := netsim.NewNetwork(1)
	n.AddBlock(blk)
	pkt := echoPacket(t, blk.ID.Addr(1), 1) // TTL 64
	var bb netsim.BatchBuffer
	lost := func() bool { return n.DeliverBatch(&bb, [][]byte{pkt}, noon)[0].Timeout }
	if lost() {
		t.Fatal("TTL 64 must cover 40 hops")
	}
	blk.Hops = 90
	n.AddBlock(blk)
	if blk.PathHops() != 90 {
		t.Fatalf("PathHops = %d after Hops = 90", blk.PathHops())
	}
	if !lost() {
		t.Fatal("TTL 64 covered a path re-registered at 90 hops")
	}
	blk.Hops = 0
	n.AddBlock(blk)
	if h := blk.PathHops(); h < 8 || h > 23 {
		t.Fatalf("derived PathHops = %d, want 8..23", h)
	}
	if lost() {
		t.Fatal("TTL 64 must cover a derived path")
	}
}

// TestTruthPlanConcurrent surveys one block from several goroutines, each
// on its own day (a TrueSeries, then TrueCounts instant by instant) so the
// day table is swapped under the others' feet, while
// another goroutine delivers batches of probes to the same block across
// day boundaries. Under -race this pins that TrueCounts shares no
// unsynchronized state with delivery (the day memo and the rate limiter)
// or with itself.
func TestTruthPlanConcurrent(t *testing.T) {
	blk, hosts := everyBranchBlock()
	n := netsim.NewNetwork(1)
	n.AddBlock(blk)

	const surveyors, rounds = 4, 131
	dayStart := func(g int) time.Time { return netsim.SimEpoch.Add(time.Duration(g) * 24 * time.Hour) }
	var want [surveyors][rounds][2]int
	for g := range want {
		for r := range want[g] {
			want[g][r][0], want[g][r][1] = blk.TrueCountsRef(hosts, dayStart(g).Add(time.Duration(r)*round))
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
			series := make([]float64, rounds)
			blk.TrueSeries(dayStart(g), round, series)
			for r := 0; r < rounds; r++ {
				up, ever := blk.TrueCounts(dayStart(g).Add(time.Duration(r) * round))
				if up != want[g][r][0] || ever != want[g][r][1] {
					t.Errorf("day %d round %d: %d of %d, want %d of %d", g, r, up, ever, want[g][r][0], want[g][r][1])
					return
				}
				if a := float64(up) / float64(ever); series[r] != a {
					t.Errorf("day %d round %d: TrueSeries says %v, want %v", g, r, series[r], a)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf netsim.BatchBuffer
		for r := 0; r < 2*rounds; r++ {
			n.DeliverBatch(&buf, probes, dayStart(1).Add(time.Duration(r)*round))
		}
	}()
	wg.Wait()
	if n.Stats.Replies.Load() == 0 {
		t.Fatal("no probe was answered: delivery did not exercise the block")
	}
}

func TestTrueAWarmPlanAllocatesNothing(t *testing.T) {
	blk, _ := everyBranchBlock()
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
	var hosts netsim.Hosts
	for h := 1; h < 41; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	for h := 41; h < 141; h++ {
		hosts[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 9 * time.Hour, StartSigma: 20 * time.Minute, DurationSigma: 40 * time.Minute, Seed: uint64(h)}
	}
	for h := 141; h < 171; h++ {
		hosts[h] = netsim.Intermittent{P: 0.6, Seed: uint64(h)}
	}
	blk.SetHosts(&hosts)
	netsim.NewNetwork(1).AddBlock(blk)
	start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
	const week = 7 * 131
	for _, bc := range []struct {
		name   string
		counts func(time.Time) (int, int)
	}{
		{"plan", blk.TrueCounts},
		{"reference", func(at time.Time) (int, int) { return blk.TrueCountsRef(&hosts, at) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				up, _ := bc.counts(start.Add(time.Duration(i%week) * round))
				sinkCounts += up
			}
		})
	}
}

var sinkSeries float64

// BenchmarkSurvey times the survey layer of the truth-7d world (200 blocks
// asked of the generator at seed 42, 251 made): every block surveyed over
// 917 rounds, by the series kernel and by one TrueA call a round, the form
// bench/'s re-enactment times.
func BenchmarkSurvey(b *testing.B) {
	w, err := world.Generate(world.Config{Blocks: 200, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
	dst := make([]float64, 917)
	b.Run("series", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, info := range w.Blocks {
				w.Net.Block(info.ID).TrueSeries(start, round, dst)
				sinkSeries += dst[len(dst)-1]
			}
		}
	})
	b.Run("per-instant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, info := range w.Blocks {
				blk := w.Net.Block(info.ID)
				for r := range dst {
					dst[r] = blk.TrueA(start.Add(time.Duration(r) * round))
				}
				sinkSeries += dst[len(dst)-1]
			}
		}
	})
}
