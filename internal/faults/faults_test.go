package faults

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
	"sleepnet/internal/netsim"
)

var epoch = time.Date(2013, time.April, 24, 0, 0, 0, 0, time.UTC)

func addr(host byte) netsim.Addr {
	return netsim.Addr{Block: netsim.MakeBlockID(10, 1, 1), Host: host}
}

// outbound1 asks the injector for the fate of one probe: a batch of one.
func outbound1(in *Injector, dst netsim.Addr, now time.Time) (time.Time, netsim.TapVerdict) {
	var (
		times    [1]time.Time
		verdicts [1]netsim.TapVerdict
	)
	in.OutboundBatch([]netsim.Addr{dst}, now, times[:], verdicts[:])
	return times[0], verdicts[0]
}

func TestZeroValueIsNoOp(t *testing.T) {
	var in Injector
	now := epoch
	for i := 0; i < 100; i++ {
		ts, v := outbound1(&in, addr(byte(i)), now)
		if v != netsim.TapDeliver {
			t.Fatalf("zero injector verdict = %v, want deliver", v)
		}
		if !ts.Equal(now) {
			t.Fatalf("zero injector skewed time: %v != %v", ts, now)
		}
		reply := []byte{1, 2, 3}
		if got := in.Inbound(addr(byte(i)), reply, now); &got[0] != &reply[0] {
			t.Fatal("zero injector copied the reply")
		}
		now = now.Add(time.Second)
	}
	if got := in.Totals(); got != (Stats{Probes: got.Probes}) {
		t.Fatalf("zero injector injected faults: %v", got)
	}
	if (Config{}).Active() {
		t.Fatal("zero config reports active")
	}
}

func TestDeterministicAndLossRate(t *testing.T) {
	cfg := Config{Seed: 7, LossRate: 0.2}
	a, b := New(cfg, time.Time{}), New(cfg, time.Time{})
	drops := 0
	const n = 5000
	for i := 0; i < n; i++ {
		now := epoch.Add(time.Duration(i) * time.Second)
		_, va := outbound1(a, addr(byte(i)), now)
		_, vb := outbound1(b, addr(byte(i)), now)
		if va != vb {
			t.Fatalf("draw %d: verdicts diverge (%v vs %v)", i, va, vb)
		}
		if va == netsim.TapDrop {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("loss fraction %.3f, want ~0.2", frac)
	}
	if got := a.Totals().Dropped; got != int64(drops) {
		t.Fatalf("Totals().Dropped = %d, want %d", got, drops)
	}
}

func TestRateLimitWindow(t *testing.T) {
	in := New(Config{Seed: 1, RateLimitPerRound: 3}, time.Time{})
	now := epoch
	var limited int
	for i := 0; i < 10; i++ {
		if _, v := outbound1(in, addr(1), now.Add(time.Duration(i)*time.Second)); v == netsim.TapAdminProhibited {
			limited++
		}
	}
	if limited != 7 {
		t.Fatalf("limited %d of 10 probes, want 7 (cap 3)", limited)
	}
	// A fresh window resets the count.
	later := now.Add(2 * 660 * time.Second)
	if _, v := outbound1(in, addr(1), later); v != netsim.TapDeliver {
		t.Fatalf("first probe of new window got %v, want deliver", v)
	}
	// Other blocks are counted independently.
	other := netsim.Addr{Block: netsim.MakeBlockID(10, 2, 2), Host: 1}
	if _, v := outbound1(in, other, now); v != netsim.TapDeliver {
		t.Fatalf("other block rate limited immediately: %v", v)
	}
	if got := in.BlockStats(addr(1).Block).RateLimited; got != 7 {
		t.Fatalf("BlockStats rate limited = %d, want 7", got)
	}
}

func TestBlackouts(t *testing.T) {
	in := New(Config{
		Seed:          3,
		BlackoutEvery: time.Hour,
		BlackoutFor:   10 * time.Minute,
	}, epoch)
	if _, v := outbound1(in, addr(1), epoch.Add(5*time.Minute)); v != netsim.TapSendError {
		t.Fatalf("inside blackout window: %v, want send error", v)
	}
	if _, v := outbound1(in, addr(1), epoch.Add(30*time.Minute)); v != netsim.TapDeliver {
		t.Fatalf("outside blackout window: %v, want deliver", v)
	}
	if _, v := outbound1(in, addr(1), epoch.Add(time.Hour+2*time.Minute)); v != netsim.TapSendError {
		t.Fatalf("inside second blackout: %v, want send error", v)
	}
	// A one-minute window a day: its edges, and nothing before the epoch.
	daily := New(Config{BlackoutEvery: 24 * time.Hour, BlackoutFor: time.Minute}, epoch)
	for _, c := range []struct {
		at   time.Duration
		want netsim.TapVerdict
	}{
		{30 * time.Second, netsim.TapSendError},
		{time.Minute, netsim.TapDeliver},
		{24*time.Hour + 59*time.Second, netsim.TapSendError},
		{-time.Hour, netsim.TapDeliver},
	} {
		if _, v := outbound1(daily, addr(1), epoch.Add(c.at)); v != c.want {
			t.Fatalf("daily blackout at epoch%+v: %v, want %v", c.at, v, c.want)
		}
	}
	// Without an epoch there is no schedule to anchor, so nothing blacks out.
	unanchored := New(Config{BlackoutEvery: time.Hour, BlackoutFor: 10 * time.Minute}, time.Time{})
	if _, v := outbound1(unanchored, addr(1), epoch.Add(5*time.Minute)); v != netsim.TapDeliver {
		t.Fatalf("blackout without an epoch: %v, want deliver", v)
	}
}

func TestClockSkewAndDrift(t *testing.T) {
	in := New(Config{
		ClockSkew:        5 * time.Second,
		ClockDriftPerDay: 2 * time.Second,
	}, epoch)
	now := epoch.Add(36 * time.Hour) // 1.5 days -> drift 3s
	ts, v := outbound1(in, addr(1), now)
	if v != netsim.TapDeliver {
		t.Fatalf("verdict %v, want deliver", v)
	}
	want := now.Add(5*time.Second + 3*time.Second)
	if !ts.Equal(want) {
		t.Fatalf("skewed time %v, want %v", ts, want)
	}
}

// TestCorruptionBreaksParsing feeds valid echo replies through the corruptor
// and requires every corrupted reply to fail validation — corruption must
// never silently yield a different valid message.
func TestCorruptionBreaksParsing(t *testing.T) {
	in := New(Config{Seed: 9, CorruptRate: 1}, time.Time{})
	sawErr := map[string]bool{}
	for i := 0; i < 300; i++ {
		reply, err := (&icmp.Echo{Reply: true, ID: 7, Seq: uint16(i), Payload: []byte("ping")}).MarshalAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		now := epoch.Add(time.Duration(i) * time.Second)
		got := in.Inbound(addr(byte(i)), reply, now)
		if perr := icmp.ParseEchoInto(new(icmp.Echo), got); perr != nil {
			switch {
			case errors.Is(perr, icmp.ErrTruncated):
				sawErr["truncated"] = true
			case errors.Is(perr, icmp.ErrChecksum):
				sawErr["checksum"] = true
			case errors.Is(perr, icmp.ErrPayloadSize):
				sawErr["payload"] = true
			default:
				sawErr["other"] = true
			}
		} else {
			t.Fatalf("draw %d: corrupted reply parsed cleanly", i)
		}
	}
	for _, kind := range []string{"truncated", "checksum", "payload"} {
		if !sawErr[kind] {
			t.Fatalf("corruption never produced a %s error (saw %v)", kind, sawErr)
		}
	}
	if got := in.Totals().Corrupted; got != 300 {
		t.Fatalf("Corrupted = %d, want 300", got)
	}
}

// TestNetworkIntegration attaches an injector to a real simulated network
// and checks the verdicts surface as the right Response shapes.
func TestNetworkIntegration(t *testing.T) {
	net := netsim.NewNetwork(42)
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 1, 1), Seed: 5}
	var hosts netsim.Hosts
	for h := 0; h < 30; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	blk.SetHosts(&hosts)
	net.AddBlock(blk)
	// probeOnce sends one IPv4-wrapped echo as a one-packet batch and hands
	// back the reply's ICMP message.
	probeOnce := func(seq uint16, now time.Time) netsim.Response {
		echo, err := (&icmp.Echo{ID: 9, Seq: seq}).MarshalAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := netsim.Addr{Block: blk.ID, Host: 3}
		pkt, err := (&ipv4.Header{TTL: 64, Protocol: ipv4.ProtoICMP,
			Src: ipv4.Addr{198, 51, 100, 1}, Dst: ipv4.Addr(dst.IP())}).MarshalAppend(nil, echo)
		if err != nil {
			t.Fatal(err)
		}
		var bb netsim.BatchBuffer
		r := net.DeliverBatch(&bb, [][]byte{pkt}, now)[0]
		if r.Data != nil {
			var hdr ipv4.Header
			if r.Data, err = ipv4.ParseHeader(&hdr, r.Data); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}

	// Total loss: every probe times out without SendFailed.
	net.SetTap(New(Config{LossRate: 1}, time.Time{}))
	r := probeOnce(1, epoch)
	if !r.Timeout || r.SendFailed {
		t.Fatalf("loss: got %+v, want plain timeout", r)
	}

	// Blackout: SendFailed set, so the prober can tell it apart.
	net.SetTap(New(Config{BlackoutEvery: 24 * time.Hour, BlackoutFor: time.Hour}, epoch))
	r = probeOnce(2, epoch.Add(time.Minute))
	if !r.SendFailed {
		t.Fatalf("blackout: got %+v, want SendFailed", r)
	}

	// Rate limit of zero probes per window answers everything with
	// admin-prohibited unreachables quoting our probe.
	net.SetTap(New(Config{RateLimitPerRound: 1}, time.Time{}))
	probeOnce(3, epoch) // consumes the window's allowance
	r = probeOnce(4, epoch.Add(time.Second))
	if r.Timeout || r.Data == nil {
		t.Fatalf("rate limit: got %+v, want a reply", r)
	}
	var un icmp.Unreachable
	if err := icmp.ParseUnreachableInto(&un, r.Data); err != nil {
		t.Fatalf("rate limit reply did not parse: %v", err)
	}
	if un.Code != icmp.CodeAdminProhibited {
		t.Fatalf("rate limit code = %d, want %d", un.Code, icmp.CodeAdminProhibited)
	}
	var orig icmp.Echo
	if err := icmp.ParseEchoInto(&orig, un.Original); err != nil || orig.Seq != 4 {
		t.Fatalf("quoted original wrong: %v %+v", err, orig)
	}

	// Removing the tap restores clean delivery.
	net.SetTap(nil)
	r = probeOnce(5, epoch)
	if r.Timeout {
		t.Fatalf("untapped probe timed out: %+v", r)
	}
}

// TestOutboundBatchMatchesSequential pins the Tap contract on the injector
// directly: one OutboundBatch call must fill exactly what asking probe by
// probe (batches of one) returns, in slice order, including the stateful
// per-block rate-limit decisions.
func TestOutboundBatchMatchesSequential(t *testing.T) {
	cfg := Config{
		Seed: 11, LossRate: 0.2, RateLimitPerRound: 3,
		ClockSkew:     150 * time.Millisecond,
		BlackoutEvery: 30 * time.Minute, BlackoutFor: 2 * time.Minute,
	}
	seq, bat := New(cfg, epoch), New(cfg, epoch)
	var dsts []netsim.Addr
	for i := 0; i < 120; i++ {
		dsts = append(dsts, netsim.Addr{Block: netsim.MakeBlockID(10, 1, byte(i%4)), Host: byte(i)})
	}
	times := make([]time.Time, len(dsts))
	verdicts := make([]netsim.TapVerdict, len(dsts))
	for round := 0; round < 12; round++ {
		now := epoch.Add(time.Duration(round) * 5 * time.Minute)
		bat.OutboundBatch(dsts, now, times, verdicts)
		for i, dst := range dsts {
			wt, wv := outbound1(seq, dst, now)
			if !times[i].Equal(wt) || verdicts[i] != wv {
				t.Fatalf("round %d probe %d: batch (%v,%v) != sequential (%v,%v)",
					round, i, times[i], verdicts[i], wt, wv)
			}
		}
	}
	if st, bt := seq.Totals(), bat.Totals(); st != bt {
		t.Fatalf("stats diverged: sequential %v, batch %v", st, bt)
	}
}

// TestInjectorBatchDeliveryEquivalence runs the real injector under one
// N-packet netsim.DeliverBatch vs N one-packet batches: byte-identical
// responses and identical fault accounting.
func TestInjectorBatchDeliveryEquivalence(t *testing.T) {
	cfg := Config{
		Seed: 3, LossRate: 0.15, CorruptRate: 0.2, RateLimitPerRound: 4,
		ClockSkew: 80 * time.Millisecond,
	}
	mkNet := func() (*netsim.Network, *Injector) {
		n := netsim.NewNetwork(9)
		for bi := 0; bi < 3; bi++ {
			b := &netsim.Block{ID: netsim.MakeBlockID(10, 2, byte(bi)), Seed: uint64(bi)}
			var hosts netsim.Hosts
			for h := 0; h < 200; h++ {
				hosts[h] = netsim.AlwaysOn{}
			}
			b.SetHosts(&hosts)
			n.AddBlock(b)
		}
		in := New(cfg, epoch)
		n.SetTap(in)
		return n, in
	}
	mkPkt := func(dst netsim.Addr, s uint16) []byte {
		echo, err := (&icmp.Echo{ID: 7, Seq: s, Payload: []byte("pp")}).MarshalAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := (&ipv4.Header{ID: s, TTL: 64, Protocol: ipv4.ProtoICMP,
			Src: ipv4.Addr{198, 51, 100, 1}, Dst: ipv4.Addr(dst.IP())}).MarshalAppend(nil, echo)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	sNet, sIn := mkNet()
	bNet, bIn := mkNet()
	var sb, bb netsim.BatchBuffer
	for round := 0; round < 10; round++ {
		now := epoch.Add(time.Duration(round) * 11 * time.Minute)
		var pkts [][]byte
		s := uint16(round * 64)
		for i := 0; i < 48; i++ {
			dst := netsim.Addr{Block: netsim.MakeBlockID(10, 2, byte(i%3)), Host: byte(i * 5)}
			pkts = append(pkts, mkPkt(dst, s))
			s++
		}
		want := make([]netsim.Response, 0, len(pkts))
		for i := range pkts {
			r := sNet.DeliverBatch(&sb, pkts[i:i+1], now)[0]
			if r.Data != nil {
				r.Data = append([]byte(nil), r.Data...)
			}
			want = append(want, r)
		}
		got := bNet.DeliverBatch(&bb, pkts, now)
		for i := range want {
			w, g := want[i], got[i]
			if w.Timeout != g.Timeout || w.SendFailed != g.SendFailed || !bytes.Equal(w.Data, g.Data) {
				t.Fatalf("round %d probe %d diverged:\n one by one %+v\n batch      %+v", round, i, w, g)
			}
		}
	}
	if st, bt := sIn.Totals(), bIn.Totals(); st != bt {
		t.Fatalf("injector stats diverged: one by one %v, batch %v", st, bt)
	}
}
