package netsim

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
)

// buildBatchWorld constructs a fresh network exercising every delivery
// branch: plain blocks, loss, latency jitter, outages with gateway
// unreachables, reply rate limits, long paths that kill small TTLs.
// Called once per network under comparison so the reference and batch runs
// own identical but independent state (rate-limit windows, counters).
func buildBatchWorld() *Network {
	n := NewNetwork(42)

	plain := newTestBlock()
	plain.LatencyBase = 25 * time.Millisecond
	plain.LatencyJitter = 10 * time.Millisecond
	n.AddBlock(plain)

	lossy := &Block{ID: MakeBlockID(10, 0, 2), Seed: 5, Loss: 0.3, LatencyBase: 40 * time.Millisecond}
	lossy.SetHosts(alwaysOn(256))
	n.AddBlock(lossy)

	outage := &Block{
		ID: MakeBlockID(10, 0, 3), Seed: 9,
		LatencyBase:            15 * time.Millisecond,
		GatewayUnreachableProb: 0.5,
		Outages:                []Interval{{Start: at(11, 0), End: at(13, 0)}},
	}
	outage.SetHosts(alwaysOn(128))
	n.AddBlock(outage)

	limited := &Block{ID: MakeBlockID(10, 0, 4), Seed: 13, ReplyRateLimit: 3, LatencyBase: 10 * time.Millisecond}
	limited.SetHosts(alwaysOn(256))
	n.AddBlock(limited)

	far := &Block{ID: MakeBlockID(10, 0, 5), Seed: 21, Hops: 40, LatencyBase: 90 * time.Millisecond}
	far.SetHosts(alwaysOn(256))
	n.AddBlock(far)

	return n
}

// orderTap is a deliberately stateful Tap: outbound verdicts cycle a
// per-block counter, inbound corruption/drops cycle a global counter. Any
// reordering of same-block outbound probes, or of inbound replies overall,
// changes its decisions — which is exactly what the equivalence tests must
// prove batching does not do. (Cross-dependence of Inbound on outbound
// state is the one thing the Tap contract forbids, so there is none here.)
type orderTap struct {
	outCount map[BlockID]int
	inCount  int
}

func newOrderTap() *orderTap { return &orderTap{outCount: make(map[BlockID]int)} }

func (o *orderTap) outbound(dst Addr, now time.Time) (time.Time, TapVerdict) {
	c := o.outCount[dst.Block]
	o.outCount[dst.Block] = c + 1
	switch c % 5 {
	case 1:
		return now, TapDrop
	case 3:
		return now, TapAdminProhibited
	case 4:
		return now, TapSendError
	}
	// Skew alternate deliveries so delivery-time-dependent draws shift.
	if c%2 == 0 {
		return now.Add(17 * time.Millisecond), TapDeliver
	}
	return now, TapDeliver
}

func (o *orderTap) OutboundBatch(dsts []Addr, now time.Time, times []time.Time, verdicts []TapVerdict) {
	for i, dst := range dsts {
		times[i], verdicts[i] = o.outbound(dst, now)
	}
}

func (o *orderTap) Inbound(dst Addr, reply []byte, now time.Time) []byte {
	o.inCount++
	switch o.inCount % 7 {
	case 2: // copy-on-corrupt: flip a bit in a fresh slice
		out := append([]byte(nil), reply...)
		out[len(out)/2] ^= 0x40
		return out
	case 5: // drop the reply
		return nil
	}
	return reply
}

// mkBatchPkt marshals one full probe packet.
func mkBatchPkt(t testing.TB, dst Addr, id, seq uint16, ttl byte, payload []byte) []byte {
	t.Helper()
	echo, err := (&icmp.Echo{ID: id, Seq: seq, Payload: payload}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := &ipv4.Header{ID: seq, TTL: ttl, Protocol: ipv4.ProtoICMP,
		Src: ipv4.Addr{198, 51, 100, 1}, Dst: ipv4.Addr(dst.IP())}
	pkt, err := hdr.MarshalAppend(nil, echo)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// batchSchedule builds one round's worth of packets: several probes per
// block (enough to trip the rate limits), unrouted space, a TTL death, and
// every malformed shape the parser rejects.
func batchSchedule(t testing.TB, r int) [][]byte {
	t.Helper()
	var pkts [][]byte
	blocks := []BlockID{
		MakeBlockID(10, 0, 1), MakeBlockID(10, 0, 2), MakeBlockID(10, 0, 3),
		MakeBlockID(10, 0, 4), MakeBlockID(10, 0, 5),
	}
	seq := uint16(r * 100)
	for i := 0; i < 8; i++ {
		for _, id := range blocks {
			host := byte((i*37 + r) % 120)
			pkts = append(pkts, mkBatchPkt(t, id.Addr(host), 7, seq, 64, []byte("probe-payload")))
			seq++
		}
	}
	// Unrouted space.
	pkts = append(pkts, mkBatchPkt(t, MakeBlockID(99, 9, 9).Addr(1), 7, seq, 64, nil))
	seq++
	// TTL too small for even the shortest derived path.
	pkts = append(pkts, mkBatchPkt(t, blocks[0].Addr(5), 7, seq, 3, nil))
	seq++
	// Malformed: truncated IP header.
	pkts = append(pkts, []byte{0x45, 0, 0})
	// Malformed: non-ICMP protocol.
	udp, err := (&ipv4.Header{TTL: 64, Protocol: 17 /* UDP */, Dst: ipv4.Addr(blocks[0].Addr(1).IP())}).MarshalAppend(nil, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, udp)
	// Malformed: echo reply sent as a probe.
	rep, err := (&icmp.Echo{Reply: true, ID: 7, Seq: seq}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := (&ipv4.Header{TTL: 64, Protocol: ipv4.ProtoICMP, Dst: ipv4.Addr(blocks[1].Addr(2).IP())}).MarshalAppend(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, wrapped)
	// Malformed: echo with a broken checksum.
	bad := mkBatchPkt(t, blocks[2].Addr(3), 7, seq, 64, []byte("zz"))
	bad[len(bad)-1] ^= 0xff
	pkts = append(pkts, bad)
	return pkts
}

// ownedResp deep-copies a Response out of a reused buffer.
func ownedResp(r Response) Response {
	if r.Data != nil {
		r.Data = append([]byte(nil), r.Data...)
	}
	return r
}

// refDeliverAll runs the reference path: one DeliverIPRef per packet.
func refDeliverAll(n *Network, pkts [][]byte, now time.Time) []Response {
	out := make([]Response, 0, len(pkts))
	for _, pkt := range pkts {
		out = append(out, n.DeliverIPRef(pkt, now))
	}
	return out
}

func respEqual(a, b Response) bool {
	return a.Timeout == b.Timeout && a.SendFailed == b.SendFailed &&
		a.RTT == b.RTT && bytes.Equal(a.Data, b.Data)
}

// checkNetsEqual compares all observable per-network accounting.
func checkNetsEqual(t *testing.T, ref, batch *Network) {
	t.Helper()
	s, b := &ref.Stats, &batch.Stats
	if s.Probes.Load() != b.Probes.Load() || s.Replies.Load() != b.Replies.Load() ||
		s.Timeouts.Load() != b.Timeouts.Load() || s.Lost.Load() != b.Lost.Load() ||
		s.Malformed.Load() != b.Malformed.Load() || s.RateLimited.Load() != b.RateLimited.Load() {
		t.Fatalf("stats diverged:\n ref   %s rate=%d\n batch %s rate=%d",
			s.String(), s.RateLimited.Load(), b.String(), b.RateLimited.Load())
	}
	for _, id := range ref.BlockIDs() {
		if rc, bc := ref.ProbesToBlock(id), batch.ProbesToBlock(id); rc != bc {
			t.Fatalf("block %v probe count: ref %d batch %d", id, rc, bc)
		}
	}
	if rc, bc := ref.ProbesToBlock(MakeBlockID(99, 9, 9)), batch.ProbesToBlock(MakeBlockID(99, 9, 9)); rc != bc {
		t.Fatalf("unrouted probe count: ref %d batch %d", rc, bc)
	}
}

// deliverRounds drives rounds of the schedule through both paths, the
// batch side split into chunks of size chunk (0 = whole round in one
// call), and fails on the first divergent response.
func deliverRounds(t *testing.T, chunk, rounds int, withTap bool) {
	t.Helper()
	refNet, bNet := buildBatchWorld(), buildBatchWorld()
	if withTap {
		refNet.SetTap(newOrderTap())
		bNet.SetTap(newOrderTap())
	}
	var bb BatchBuffer
	for r := 0; r < rounds; r++ {
		// 40s steps cross rate-limit minute windows mid-sequence; rounds 16+
		// land inside the outage window of block 10.0.3 (11:00–13:00).
		now := at(10, 50).Add(time.Duration(r) * 40 * time.Second)
		pkts := batchSchedule(t, r)
		want := refDeliverAll(refNet, pkts, now)
		var got []Response
		for start := 0; start < len(pkts); {
			end := len(pkts)
			if chunk > 0 && start+chunk < end {
				end = start + chunk
			}
			for _, resp := range bNet.DeliverBatch(&bb, pkts[start:end], now) {
				got = append(got, ownedResp(resp))
			}
			start = end
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d responses, want %d", r, len(got), len(want))
		}
		for i := range want {
			if !respEqual(got[i], want[i]) {
				t.Fatalf("round %d pkt %d diverged:\n ref   %+v\n batch %+v", r, i, want[i], got[i])
			}
		}
	}
	checkNetsEqual(t, refNet, bNet)
}

func TestDeliverBatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int
		tap   bool
	}{
		{"size1", 1, false},
		{"size7", 7, false},
		{"size64", 64, false},
		{"fullround", 0, false},
		{"size1_tap", 1, true},
		{"size7_tap", 7, true},
		{"size64_tap", 64, true},
		{"fullround_tap", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) { deliverRounds(t, tc.chunk, 24, tc.tap) })
	}
}

// TestDeliverBatchRandomSplits is the quick property: any partition of a
// round into consecutive DeliverBatch calls yields the reference byte
// sequence.
func TestDeliverBatchRandomSplits(t *testing.T) {
	prop := func(seed uint64) bool {
		refNet, bNet := buildBatchWorld(), buildBatchWorld()
		refNet.SetTap(newOrderTap())
		bNet.SetTap(newOrderTap())
		var bb BatchBuffer
		state := seed
		next := func(n int) int { // tiny deterministic LCG over the quick seed
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		for r := 0; r < 6; r++ {
			now := at(10, 50).Add(time.Duration(r) * 40 * time.Second)
			pkts := batchSchedule(t, r)
			want := refDeliverAll(refNet, pkts, now)
			var got []Response
			for start := 0; start < len(pkts); {
				end := start + 1 + next(len(pkts)-start)
				for _, resp := range bNet.DeliverBatch(&bb, pkts[start:end], now) {
					got = append(got, ownedResp(resp))
				}
				start = end
			}
			for i := range want {
				if !respEqual(got[i], want[i]) {
					t.Logf("seed %d round %d pkt %d diverged", seed, r, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDeliverBatchTopologyMutation checks the route cache revalidates when
// the topology generation moves: blocks added between batches must be
// visible, and stale cached routes must never be used.
func TestDeliverBatchTopologyMutation(t *testing.T) {
	refNet, bNet := buildBatchWorld(), buildBatchWorld()
	var bb BatchBuffer
	lateID := MakeBlockID(20, 0, 1)
	mkLate := func() *Block {
		late := &Block{ID: lateID, Seed: 33, LatencyBase: 5 * time.Millisecond}
		late.SetHosts(alwaysOn(16))
		return late
	}
	probeLate := func(r int) [][]byte {
		return [][]byte{
			mkBatchPkt(t, lateID.Addr(3), 7, uint16(r), 64, nil),
			mkBatchPkt(t, MakeBlockID(10, 0, 1).Addr(4), 7, uint16(r+1000), 64, nil),
		}
	}
	now := at(12, 0)
	// Round 1: lateID is unrouted — cached as nil route.
	want := refDeliverAll(refNet, probeLate(1), now)
	got := bNet.DeliverBatch(&bb, probeLate(1), now)
	for i := range want {
		if !respEqual(got[i], want[i]) {
			t.Fatalf("pre-mutation pkt %d diverged", i)
		}
	}
	if !want[0].Timeout {
		t.Fatal("unrouted block should time out")
	}
	// Mutate: the block appears.
	refNet.AddBlock(mkLate())
	bNet.AddBlock(mkLate())
	now = now.Add(time.Minute)
	want = refDeliverAll(refNet, probeLate(2), now)
	got = bNet.DeliverBatch(&bb, probeLate(2), now)
	for i := range want {
		if !respEqual(got[i], want[i]) {
			t.Fatalf("post-mutation pkt %d diverged", i)
		}
	}
	if want[0].Timeout {
		t.Fatal("late block should reply after AddBlock")
	}
	checkNetsEqual(t, refNet, bNet)
}

// TestDeliverBatchBufferLifetime pins the arena contract: all responses of
// one batch stay valid together — through a delivery on another buffer in
// between, which is what a prober's mid-phase retry is — and the same
// buffer's next batch overwrites them.
func TestDeliverBatchBufferLifetime(t *testing.T) {
	refNet, n := buildBatchWorld(), buildBatchWorld()
	var bb, retry BatchBuffer
	pkts := [][]byte{
		mkBatchPkt(t, MakeBlockID(10, 0, 1).Addr(1), 7, 1, 64, []byte("aaaa")),
		mkBatchPkt(t, MakeBlockID(10, 0, 1).Addr(2), 7, 2, 64, []byte("bbbb")),
		mkBatchPkt(t, MakeBlockID(10, 0, 1).Addr(3), 7, 3, 64, []byte("cccc")),
	}
	want := refDeliverAll(refNet, pkts, at(12, 0))
	resps := n.DeliverBatch(&bb, pkts, at(12, 0))
	if r := n.DeliverBatch(&retry, pkts[1:2], at(12, 0).Add(2*time.Second)); r[0].Timeout {
		t.Fatal("the delivery on the second buffer timed out")
	}
	for i, r := range resps {
		if r.Timeout {
			t.Fatalf("pkt %d timed out", i)
		}
		if !respEqual(r, want[i]) {
			t.Fatalf("response %d changed within its batch lifetime:\n ref   %+v\n batch %+v", i, want[i], r)
		}
	}
	first := ownedResp(resps[0])
	n.DeliverBatch(&bb, pkts[2:], at(12, 0))
	if respEqual(resps[0], first) {
		t.Fatal("the buffer's next batch left the previous batch's view intact: the arena is not being reused")
	}
	if bb.RetainedBytes() <= 0 {
		t.Fatal("warm BatchBuffer should report retained bytes")
	}
}

// TestDeliverBatchAllocFree pins the warm-batch budget: after warmup, a
// DeliverBatch round of well-formed probes allocates nothing. (Malformed
// packets are excluded deliberately: parser error construction allocates
// and is the lint budget's exempt cold path — a real prober's warm round
// sends only packets it marshalled itself.)
func TestDeliverBatchAllocFree(t *testing.T) {
	n := buildBatchWorld()
	var bb BatchBuffer
	var pkts [][]byte
	for i := 0; i < 40; i++ {
		for _, id := range []BlockID{MakeBlockID(10, 0, 1), MakeBlockID(10, 0, 4), MakeBlockID(10, 0, 5), MakeBlockID(99, 9, 9)} {
			pkts = append(pkts, mkBatchPkt(t, id.Addr(byte(i*3)), 7, uint16(i), 64, []byte("probe-payload")))
		}
	}
	// Rounds advance from 20:00, so the measured ones cross midnight: the
	// diurnal hosts of 10.0.1/24 draw a new day's on-periods into their day
	// memo, which must not allocate either.
	now := at(20, 0)
	round := func() {
		n.DeliverBatch(&bb, pkts, now)
		now = now.Add(11 * time.Minute)
	}
	for i := 0; i < 3; i++ {
		round()
	}
	avg := testing.AllocsPerRun(50, round)
	if !now.After(at(24, 0)) {
		t.Fatal("the measured rounds did not cross midnight")
	}
	if avg != 0 {
		t.Fatalf("warm DeliverBatch allocates %.1f allocs/op, want 0", avg)
	}
}
