package trinocular

import (
	"testing"
	"time"

	"sleepnet/internal/icmp"
	"sleepnet/internal/ipv4"
	"sleepnet/internal/netsim"
)

// TestProbeRoundAllocFree pins the steady-state allocation budget of the
// probe-at-a-time wire path at zero: after the first rounds have grown the
// prober's send scratch, a ProbeRound — patch the template, deliver a
// one-packet batch, parse the reply back — must not touch the heap, and
// neither must a round whose first send fails and is retried. A failure
// here means a future change reintroduced garbage on the hot path (the
// whole point of the append/Into APIs).
func TestProbeRoundAllocFree(t *testing.T) {
	n := netsim.NewNetwork(1)
	up := buildBlock(netsim.MakeBlockID(10, 0, 1), 100, 0, 0)
	n.AddBlock(up)
	// An intermittent block exercises the multi-probe negative path too.
	flaky := buildBlock(netsim.MakeBlockID(10, 0, 2), 0, 100, 0.3)
	n.AddBlock(flaky)
	// Every round's first send to the flaky block dies at the vantage point.
	n.SetTap(sendBlackout{blk: flaky.ID, every: 11 * time.Minute})

	var probers []*Prober
	for _, blk := range []*netsim.Block{up, flaky} {
		p := New(n, Config{Retry: RetryConfig{MaxAttempts: 3}}, 7)
		if err := p.AddBlock(blk.ID, blk.EverActive()); err != nil {
			t.Fatal(err)
		}
		probers = append(probers, p)
	}

	// Warm-up: grow scratch buffers and settle beliefs.
	round, retries := 0, 0
	probeAll := func() {
		for _, p := range probers {
			obs, err := p.ProbeRound(at(0, 0, round*11), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			retries += obs.Retries
		}
		round++
	}
	probeAll()
	probeAll()

	retries = 0
	avg := testing.AllocsPerRun(50, probeAll)
	if avg != 0 {
		t.Fatalf("ProbeRound allocates %.2f times per two-block round, want 0", avg)
	}
	if retries < 50 {
		t.Fatalf("%d retries in the measured rounds: the retrying round is not inside the budget", retries)
	}
}

// TestClassifyUnreachableAllocFree pins the gateway-unreachable reply at
// zero allocations for both ways a gateway may quote the probe: bare ICMP
// (what netsim emits) and the full IPv4 datagram. The bare quote used to
// be recognised by letting ipv4.ParseHeader fail, and the error it built
// cost two allocations a reply — few enough a round to hide inside
// AllocsPerRun's integer average, until -race made fmt's printer pool miss,
// each miss allocated a printer too, and TestProbeRoundsBatchAllocFree read 1.
func TestClassifyUnreachableAllocFree(t *testing.T) {
	const seq = 17
	target := ipv4.Addr{10, 3, 3, 9}
	probe, err := (&icmp.Echo{ID: icmpID, Seq: seq}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	datagram, err := (&ipv4.Header{Protocol: ipv4.ProtoICMP, Src: srcIP, Dst: target}).MarshalAppend(nil, probe)
	if err != nil {
		t.Fatal(err)
	}
	p := New(netsim.NewNetwork(1), Config{}, 7)
	for name, quoted := range map[string][]byte{"bare": probe, "datagram": datagram} {
		un, err := (&icmp.Unreachable{Code: icmp.CodeHostUnreachable, Original: quoted}).MarshalAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := (&ipv4.Header{Protocol: ipv4.ProtoICMP, Src: ipv4.Addr{10, 3, 3, 1}, Dst: srcIP}).MarshalAppend(nil, un)
		if err != nil {
			t.Fatal(err)
		}
		resp := netsim.Response{Data: reply}
		if got := p.classifyResponse(resp, target, seq); got != outcomeUnreachable {
			t.Fatalf("%s quote: outcome %v, want unreachable", name, got)
		}
		if got := p.classifyResponse(resp, target, seq+1); got != outcomeNegative {
			t.Fatalf("%s quote of another probe: outcome %v, want negative", name, got)
		}
		if avg := testing.AllocsPerRun(100, func() { p.classifyResponse(resp, target, seq) }); avg != 0 {
			t.Fatalf("%s quote: classifying the reply allocates %.0f times, want 0", name, avg)
		}
	}
}
