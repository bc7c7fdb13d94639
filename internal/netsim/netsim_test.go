package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
)

func at(h, m int) time.Time {
	return simEpoch.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute)
}

func TestBlockIDString(t *testing.T) {
	id := MakeBlockID(1, 9, 21)
	if id.String() != "1.9.21/24" {
		t.Fatalf("String = %q", id.String())
	}
	a := id.Addr(7)
	if a.String() != "1.9.21.7" {
		t.Fatalf("Addr String = %q", a.String())
	}
}

func TestAlwaysOnDead(t *testing.T) {
	if !(AlwaysOn{}).Up(at(3, 0)) || !(AlwaysOn{}).EverActive() {
		t.Fatal("AlwaysOn broken")
	}
	// A dead address is a host left nil: outside E(b), silent to probes.
	b := &Block{ID: MakeBlockID(10, 0, 2)}
	var hosts Hosts
	hosts[1] = AlwaysOn{}
	b.SetHosts(&hosts)
	if ever := b.EverActive(); len(ever) != 1 || ever[0] != 1 {
		t.Fatalf("E(b) = %v, want host 1 alone", ever)
	}
	n := NewNetwork(3)
	n.AddBlock(b)
	if resp := probeOnce(t, n, b.ID.Addr(2), 1, at(3, 0)); !resp.Timeout {
		t.Fatal("a nil host answered")
	}
}

func TestIntermittentRate(t *testing.T) {
	b := Intermittent{P: 0.3, Seed: 42}
	n, up := 5000, 0
	for i := 0; i < n; i++ {
		if b.Up(simEpoch.Add(time.Duration(i) * 660 * time.Second)) {
			up++
		}
	}
	got := float64(up) / float64(n)
	if math.Abs(got-0.3) > 0.03 {
		t.Fatalf("empirical P = %v, want ~0.3", got)
	}
	// Consistency within a quantum.
	t0 := at(5, 3)
	if b.Up(t0) != b.Up(t0.Add(time.Second)) {
		t.Fatal("same-quantum probes must agree")
	}
	if (Intermittent{P: 0}).Up(t0) || (Intermittent{P: 0}).EverActive() {
		t.Fatal("P=0 should be dead")
	}
	if !(Intermittent{P: 1}).Up(t0) {
		t.Fatal("P=1 should always answer")
	}
}

func TestDiurnalBasicSchedule(t *testing.T) {
	// On 09:00–17:00 every day.
	d := Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: 1}
	if !d.EverActive() {
		t.Fatal("diurnal should be ever-active")
	}
	cases := []struct {
		h    int
		want bool
	}{{8, false}, {9, true}, {12, true}, {16, true}, {17, false}, {23, false}, {0, false}}
	for _, c := range cases {
		if got := d.Up(at(c.h, 30).Add(-30 * time.Minute)); got != c.want {
			t.Errorf("Up at %02d:00 = %v, want %v", c.h, got, c.want)
		}
	}
	// Same schedule next day.
	if !d.Up(at(24+12, 0)) || d.Up(at(24+20, 0)) {
		t.Fatal("schedule should repeat daily")
	}
}

func TestDiurnalMidnightSpill(t *testing.T) {
	// On 20:00 for 8 hours: up 20:00–04:00 next day.
	d := Diurnal{Phase: 20 * time.Hour, Duration: 8 * time.Hour, Seed: 2}
	if !d.Up(at(21, 0)) {
		t.Fatal("should be up at 21:00")
	}
	if !d.Up(at(27, 0)) { // 03:00 next day
		t.Fatal("should be up at 03:00 next day (spill)")
	}
	if d.Up(at(29, 0)) { // 05:00 next day
		t.Fatal("should be down at 05:00")
	}
}

func TestDiurnalDutyCycleLongRun(t *testing.T) {
	// 8h/day up => availability fraction ~1/3 over many days.
	d := Diurnal{Phase: 6 * time.Hour, Duration: 8 * time.Hour, Seed: 3}
	n, up := 0, 0
	for ti := simEpoch; ti.Before(simEpoch.AddDate(0, 0, 28)); ti = ti.Add(11 * time.Minute) {
		n++
		if d.Up(ti) {
			up++
		}
	}
	got := float64(up) / float64(n)
	if math.Abs(got-1.0/3) > 0.01 {
		t.Fatalf("duty cycle = %v, want ~0.333", got)
	}
}

func TestDiurnalNoiseChangesDays(t *testing.T) {
	d := Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, StartSigma: 2 * time.Hour, Seed: 4}
	// With 2h start noise, the 09:05 probe outcome should differ across
	// at least some days.
	diff := false
	first := d.Up(at(9, 5))
	for day := 1; day < 30 && !diff; day++ {
		if d.Up(at(24*day+9, 5)) != first {
			diff = true
		}
	}
	if !diff {
		t.Fatal("start noise should perturb the boundary across days")
	}
	// Determinism: same query twice.
	if d.Up(at(9, 5)) != first {
		t.Fatal("behavior must be deterministic")
	}
}

func TestDiurnalUpProb(t *testing.T) {
	d := Diurnal{Phase: 0, Duration: 24 * time.Hour, UpProb: 0.5, Seed: 5}
	n, up := 3000, 0
	for i := 0; i < n; i++ {
		if d.Up(simEpoch.Add(time.Duration(i) * 660 * time.Second)) {
			up++
		}
	}
	got := float64(up) / float64(n)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("UpProb empirical = %v", got)
	}
}

func TestPeriodicBehavior(t *testing.T) {
	// 5.5h period, half duty.
	p := Periodic{Period: 330 * time.Minute, Duty: 0.5}
	if !p.EverActive() {
		t.Fatal("EverActive")
	}
	if !p.Up(simEpoch.Add(10 * time.Minute)) {
		t.Fatal("early phase should be up")
	}
	if p.Up(simEpoch.Add(200 * time.Minute)) {
		t.Fatal("late phase should be down")
	}
	if !p.Up(simEpoch.Add(340 * time.Minute)) {
		t.Fatal("next cycle should be up again")
	}
	if (Periodic{}).Up(simEpoch) || (Periodic{}).EverActive() {
		t.Fatal("zero Periodic should be dead")
	}
	if !(Periodic{Period: time.Hour, Duty: 1}).Up(simEpoch.Add(30 * time.Minute)) {
		t.Fatal("full duty should always be up")
	}
}

// alwaysOn returns a spec whose first n hosts always answer.
func alwaysOn(n int) *Hosts {
	var hosts Hosts
	for h := 0; h < n; h++ {
		hosts[h] = AlwaysOn{}
	}
	return &hosts
}

func newTestBlock() *Block {
	b := &Block{ID: MakeBlockID(10, 0, 1), Seed: 77}
	hosts := alwaysOn(42)
	for h := 42; h < 100; h++ {
		hosts[h] = Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: uint64(h)}
	}
	b.SetHosts(hosts)
	return b
}

func TestBlockEverActiveAndTrueA(t *testing.T) {
	b := newTestBlock()
	if got := len(b.EverActive()); got != 100 {
		t.Fatalf("EverActive = %d, want 100", got)
	}
	// At 03:00 only always-on respond: A = 42/100.
	if got := b.TrueA(at(3, 0)); math.Abs(got-0.42) > 1e-9 {
		t.Fatalf("TrueA night = %v, want 0.42", got)
	}
	// At 12:00 everyone responds: A = 1.
	if got := b.TrueA(at(12, 0)); got != 1 {
		t.Fatalf("TrueA noon = %v, want 1", got)
	}
	empty := &Block{ID: MakeBlockID(10, 0, 2)}
	if empty.TrueA(at(0, 0)) != 0 {
		t.Fatal("empty block TrueA should be 0")
	}
}

func TestBlockOutage(t *testing.T) {
	b := newTestBlock()
	b.Outages = []Interval{{Start: at(12, 0), End: at(13, 0)}}
	if !b.InOutage(at(12, 30)) || b.InOutage(at(13, 0)) || b.InOutage(at(11, 59)) {
		t.Fatal("interval containment wrong")
	}
	if got := b.TrueA(at(12, 30)); got != 0 {
		t.Fatalf("TrueA during outage = %v", got)
	}
	if up, ever := b.TrueCounts(at(12, 30)); up != 0 || ever != 100 {
		t.Fatalf("TrueCounts during outage = %d of %d, want 0 of 100", up, ever)
	}
}

// deliverPkt sends one full IPv4 packet the way every probe travels — as a
// one-packet batch — and returns an owned copy of the response.
func deliverPkt(n *Network, pkt []byte, when time.Time) Response {
	var bb BatchBuffer
	return ownedResp(n.DeliverBatch(&bb, [][]byte{pkt}, when)[0])
}

// probeICMP carries one ICMP-layer message to dst for the tests that work
// below the IP layer: it wraps msg in an IPv4 datagram, delivers it, and
// unwraps the reply, so resp.Data is the ICMP message that came back.
func probeICMP(t testing.TB, n *Network, dst Addr, msg []byte, when time.Time) Response {
	t.Helper()
	hdr := &ipv4.Header{TTL: ipv4.DefaultTTL, Protocol: ipv4.ProtoICMP,
		Src: ipv4.Addr{198, 51, 100, 1}, Dst: ipv4.Addr(dst.IP())}
	pkt, err := hdr.MarshalAppend(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	resp := deliverPkt(n, pkt, when)
	if resp.Data != nil {
		var rh ipv4.Header
		if resp.Data, err = ipv4.ParseHeader(&rh, resp.Data); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func probeOnce(t *testing.T, n *Network, dst Addr, seq uint16, when time.Time) Response {
	t.Helper()
	pkt, err := (&icmp.Echo{ID: 1, Seq: seq}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	return probeICMP(t, n, dst, pkt, when)
}

func TestNetworkProbeReply(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	b.LatencyBase = 30 * time.Millisecond
	b.LatencyJitter = 10 * time.Millisecond
	n.AddBlock(b)
	resp := probeOnce(t, n, b.ID.Addr(5), 9, at(12, 0))
	if resp.Timeout {
		t.Fatal("always-on host should reply")
	}
	var e icmp.Echo
	if err := icmp.ParseEchoInto(&e, resp.Data); err != nil {
		t.Fatal(err)
	}
	if !e.Matches(1, 9) {
		t.Fatalf("reply = %+v", e)
	}
	if resp.RTT < 30*time.Millisecond || resp.RTT > 40*time.Millisecond {
		t.Fatalf("RTT = %v", resp.RTT)
	}
	if n.Stats.Replies.Load() != 1 {
		t.Fatalf("stats: %s", n.Stats.String())
	}
}

func TestNetworkTimeouts(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	n.AddBlock(b)
	// Dead host.
	if resp := probeOnce(t, n, b.ID.Addr(200), 1, at(12, 0)); !resp.Timeout {
		t.Fatal("dead host should time out")
	}
	// Unrouted block.
	if resp := probeOnce(t, n, MakeBlockID(99, 0, 0).Addr(1), 2, at(12, 0)); !resp.Timeout {
		t.Fatal("unrouted block should time out")
	}
	// Diurnal host at night.
	if resp := probeOnce(t, n, b.ID.Addr(50), 3, at(3, 0)); !resp.Timeout {
		t.Fatal("diurnal host at night should time out")
	}
	if resp := probeOnce(t, n, b.ID.Addr(50), 4, at(12, 0)); resp.Timeout {
		t.Fatal("diurnal host at noon should reply")
	}
}

func TestNetworkMalformedDropped(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	n.AddBlock(b)
	resp := probeICMP(t, n, b.ID.Addr(1), []byte{8, 0, 0}, at(12, 0))
	if !resp.Timeout {
		t.Fatal("malformed probe should time out")
	}
	// Echo replies sent as probes are also dropped.
	rep, _ := (&icmp.Echo{Reply: true, ID: 1, Seq: 1}).MarshalAppend(nil)
	if resp := probeICMP(t, n, b.ID.Addr(1), rep, at(12, 0)); !resp.Timeout {
		t.Fatal("reply-as-probe should time out")
	}
	if n.Stats.Malformed.Load() != 2 {
		t.Fatalf("malformed count = %d", n.Stats.Malformed.Load())
	}
}

func TestNetworkLossRate(t *testing.T) {
	n := NewNetwork(2)
	b := &Block{ID: MakeBlockID(10, 1, 0), Loss: 0.25, Seed: 5}
	b.SetHosts(alwaysOn(256))
	n.AddBlock(b)
	total, lost := 4000, 0
	for i := 0; i < total; i++ {
		resp := probeOnce(t, n, b.ID.Addr(byte(i)), uint16(i), at(12, 0).Add(time.Duration(i)*time.Second))
		if resp.Timeout {
			lost++
		}
	}
	got := float64(lost) / float64(total)
	if math.Abs(got-0.25) > 0.03 {
		t.Fatalf("loss rate = %v, want ~0.25", got)
	}
}

func TestNetworkAccounting(t *testing.T) {
	n := NewNetwork(3)
	b := newTestBlock()
	n.AddBlock(b)
	for i := 0; i < 10; i++ {
		probeOnce(t, n, b.ID.Addr(1), uint16(i), at(12, i))
	}
	if got := n.ProbesToBlock(b.ID); got != 10 {
		t.Fatalf("ProbesToBlock = %d", got)
	}
	if got := n.ProbesToBlock(MakeBlockID(1, 2, 3)); got != 0 {
		t.Fatalf("unknown block probes = %d", got)
	}
	if len(n.BlockIDs()) != 1 {
		t.Fatal("topology accessors")
	}
	if n.Block(b.ID) != b || n.Block(MakeBlockID(9, 9, 9)) != nil {
		t.Fatal("Block lookup")
	}
}

func TestDeterminismProperty(t *testing.T) {
	// The same world seed and probe sequence must produce identical
	// outcomes — resumability depends on it.
	f := func(seed uint64) bool {
		run := func() []bool {
			n := NewNetwork(seed)
			b := &Block{ID: MakeBlockID(10, 2, 0), Loss: 0.3, Seed: seed ^ 0xabc}
			var hosts Hosts
			for h := 0; h < 64; h++ {
				hosts[h] = Intermittent{P: 0.6, Seed: seed + uint64(h)}
			}
			b.SetHosts(&hosts)
			n.AddBlock(b)
			var outs []bool
			for i := 0; i < 50; i++ {
				pkt, _ := (&icmp.Echo{ID: 9, Seq: uint16(i)}).MarshalAppend(nil)
				resp := probeICMP(t, n, b.ID.Addr(byte(i%64)), pkt, at(0, i))
				outs = append(outs, resp.Timeout)
			}
			return outs
		}
		a, c := run(), run()
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPRFUniformity(t *testing.T) {
	// Rough uniformity check on the per-quantum draw.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += prfFloat2(123, uint64(i), 0x1a7e)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("prfFloat2 mean = %v", mean)
	}
}

func TestPRFNormMoments(t *testing.T) {
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := prfNorm(55, uint64(i))
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.03 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("prfNorm mean=%v var=%v", mean, variance)
	}
}

// BenchmarkNetworkProbe times one probe crossing the boundary alone: a
// one-packet batch through a warm buffer, what a retried probe costs.
func BenchmarkNetworkProbe(b *testing.B) {
	n := NewNetwork(1)
	blk := newTestBlock()
	n.AddBlock(blk)
	pkts := make([][]byte, 256)
	for h := range pkts {
		pkts[h] = mkBatchPkt(b, blk.ID.Addr(byte(h)), 1, 1, ipv4.DefaultTTL, nil)
	}
	var bb BatchBuffer
	when := at(12, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.DeliverBatch(&bb, pkts[i%256:i%256+1], when)
	}
}

func deliverOnce(t *testing.T, n *Network, dst Addr, seq uint16, ttl byte, when time.Time) Response {
	t.Helper()
	return deliverPkt(n, mkBatchPkt(t, dst, 7, seq, ttl, nil), when)
}

func TestDeliverIPRoundTrip(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	n.AddBlock(b)
	resp := deliverOnce(t, n, b.ID.Addr(5), 3, 64, at(12, 0))
	if resp.Timeout {
		t.Fatal("always-on host should reply over IPv4")
	}
	var hdr ipv4.Header
	payload, err := ipv4.ParseHeader(&hdr, resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Src != ipv4.Addr(b.ID.Addr(5).IP()) || hdr.Dst != (ipv4.Addr{198, 51, 100, 1}) {
		t.Fatalf("reply header = %+v", hdr)
	}
	if hdr.TTL == 0 || hdr.TTL >= ipv4.DefaultTTL {
		t.Fatalf("reply TTL = %d, want decremented by path", hdr.TTL)
	}
	var e icmp.Echo
	if err := icmp.ParseEchoInto(&e, payload); err != nil {
		t.Fatal(err)
	}
	if !e.Matches(7, 3) {
		t.Fatalf("inner echo = %+v", e)
	}
}

func TestDeliverIPTTLExpires(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	b.Hops = 12
	n.AddBlock(b)
	if resp := deliverOnce(t, n, b.ID.Addr(5), 1, 5, at(12, 0)); !resp.Timeout {
		t.Fatal("TTL 5 must not cover 12 hops")
	}
	if resp := deliverOnce(t, n, b.ID.Addr(5), 2, 13, at(12, 0)); resp.Timeout {
		t.Fatal("TTL 13 covers 12 hops")
	}
}

func TestDeliverIPMalformed(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	n.AddBlock(b)
	before := n.Stats.Malformed.Load()
	if resp := deliverPkt(n, []byte{0x45, 0, 0}, at(12, 0)); !resp.Timeout {
		t.Fatal("truncated IPv4 should time out")
	}
	// Wrong protocol.
	hdr := &ipv4.Header{TTL: 64, Protocol: 17 /* UDP */, Dst: ipv4.Addr(b.ID.Addr(1).IP())}
	pkt, _ := hdr.MarshalAppend(nil, []byte("x"))
	if resp := deliverPkt(n, pkt, at(12, 0)); !resp.Timeout {
		t.Fatal("non-ICMP should time out")
	}
	if n.Stats.Malformed.Load() != before+2 {
		t.Fatalf("malformed count = %d", n.Stats.Malformed.Load())
	}
}

func TestPathHops(t *testing.T) {
	b := &Block{ID: MakeBlockID(1, 2, 3)}
	h := b.PathHops()
	if h < 8 || h > 23 {
		t.Fatalf("derived hops = %d", h)
	}
	b.Hops = 3
	if b.PathHops() != 3 {
		t.Fatal("explicit hops should win")
	}
}

func TestAddrIPRoundTrip(t *testing.T) {
	a := MakeBlockID(10, 20, 30).Addr(40)
	if got := AddrFromIP(a.IP()); got != a {
		t.Fatalf("round trip = %v", got)
	}
}

func TestReplyRateLimit(t *testing.T) {
	n := NewNetwork(1)
	b := newTestBlock()
	b.ReplyRateLimit = 10
	n.AddBlock(b)
	replies := 0
	base := at(12, 0)
	for i := 0; i < 30; i++ {
		resp := probeOnce(t, n, b.ID.Addr(byte(i%42)), uint16(i), base.Add(time.Duration(i)*time.Second))
		if !resp.Timeout {
			replies++
		}
	}
	if replies != 10 {
		t.Fatalf("replies = %d, want 10 (rate limited)", replies)
	}
	if n.Stats.RateLimited.Load() != 20 {
		t.Fatalf("rate-limited count = %d", n.Stats.RateLimited.Load())
	}
	// A new minute refills the budget.
	resp := probeOnce(t, n, b.ID.Addr(1), 99, base.Add(61*time.Second))
	if resp.Timeout {
		t.Fatal("budget should refill next minute")
	}
	// Unlimited by default.
	b2 := newTestBlock()
	b2.ID = MakeBlockID(10, 0, 9)
	n.AddBlock(b2)
	for i := 0; i < 50; i++ {
		if resp := probeOnce(t, n, b2.ID.Addr(1), uint16(i), base); resp.Timeout {
			t.Fatal("unlimited block should always reply")
		}
	}
}

// TestSecondsSinceEpochIsSub pins the simulation clock to its definition,
// t.Sub(simEpoch) in seconds, bit for bit: before and after the epoch, off
// the second grid, and for a time that carries a monotonic reading.
func TestSecondsSinceEpochIsSub(t *testing.T) {
	ts := []time.Time{simEpoch, time.Now(), time.Unix(0, 0), time.Date(2200, 1, 1, 0, 0, 0, 999999999, time.UTC)}
	for i := int64(-4000); i < 4000; i++ {
		// Twenty years either side, off every grid.
		ts = append(ts, simEpoch.Add(time.Duration(i*i*i)*10*time.Millisecond+time.Duration(i)))
	}
	for _, at := range ts {
		if got, want := secondsSinceEpoch(at), at.Sub(simEpoch).Seconds(); got != want {
			t.Fatalf("secondsSinceEpoch(%v) = %v, Sub gives %v", at, got, want)
		}
	}
}
