package netsim_test

import (
	"testing"
	"time"

	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// TestHostTableMatchesBehaviors pins what a block answers from its host
// table to the plain Behavior evaluations it was compiled from: for all 256
// octets, a probe is answered exactly when the block is not in an outage
// and the octet's behaviour says Up — on the batched path (whose per-block
// instant and per-host day memos carry over from round to round, and are
// churned by instants that wander backwards) and through the sequential
// oracle the batch tests compare against.
func TestHostTableMatchesBehaviors(t *testing.T) {
	check := func(t *testing.T, n *netsim.Network, blk *netsim.Block, hosts *netsim.Hosts, instants []time.Time, refEvery int) (answered int) {
		t.Helper()
		pkts := make([][]byte, 256)
		for h := range pkts {
			pkts[h] = echoPacket(t, blk.ID.Addr(byte(h)), uint16(h))
		}
		var bb netsim.BatchBuffer
		for i, at := range instants {
			down := blk.InOutage(at)
			batch := n.DeliverBatch(&bb, pkts, at)
			for h, bh := range hosts {
				want := !down && bh != nil && bh.Up(at)
				if got := !batch[h].Timeout; got != want {
					t.Fatalf("%s at %v: batched probe answered = %v, Behavior.Up = %v (outage: %v)", blk.ID.Addr(byte(h)), at, got, want, down)
				}
				if i%refEvery == 0 {
					if got := !n.DeliverIPRef(pkts[h], at).Timeout; got != want {
						t.Fatalf("%s at %v: reference probe answered = %v, Behavior.Up = %v (outage: %v)", blk.ID.Addr(byte(h)), at, got, want, down)
					}
				}
				if want {
					answered++
				}
			}
		}
		return answered
	}

	t.Run("every-branch", func(t *testing.T) {
		blk, hosts := everyBranchBlock()
		blk.ReplyRateLimit = 0 // every host that is up must be heard
		n := netsim.NewNetwork(1)
		n.AddBlock(blk)
		if check(t, n, blk, hosts, wanderingInstants(), 1) == 0 {
			t.Fatal("no probe was answered")
		}
		// A fresh table's first day: simulation day 0 as today, then as the
		// yesterday whose on-periods spill into 01:00.
		for _, first := range []time.Duration{13 * time.Hour, 25 * time.Hour} {
			blk, hosts := everyBranchBlock()
			blk.ReplyRateLimit = 0
			n.AddBlock(blk)
			if check(t, n, blk, hosts, []time.Time{netsim.SimEpoch.Add(first)}, 1) < 10 {
				t.Fatalf("at %v few hosts are up: the instant does not test the diurnal ones", first)
			}
		}
	})

	for _, seed := range []uint64{1, 2} {
		w, err := world.Generate(world.Config{Blocks: 10, Seed: seed, OutagesPerBlockWeek: 2})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
		instants := make([]time.Time, 14*131)
		for r := range instants {
			instants[r] = start.Add(time.Duration(r) * round)
		}
		// A tenth of the world's hundred blocks, and its first few diurnal
		// ones: 14 days × 256 octets of each is the bulk of the cost.
		diurnal, dark := 0, 0
		for i, info := range w.Blocks {
			if info.DesignedDiurnal {
				diurnal++
			}
			if i%10 != 0 && !(info.DesignedDiurnal && diurnal <= 4) {
				continue
			}
			blk := w.Net.Block(info.ID)
			blk.Loss = 0
			dark += len(blk.Outages)
			check(t, w.Net, blk, blk.HostSpec(), instants, 7)
		}
		if diurnal == 0 || dark == 0 {
			t.Fatalf("world %d: %d diurnal blocks, %d outages; the comparison needs both", seed, diurnal, dark)
		}
	}
}
