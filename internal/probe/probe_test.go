package probe

import (
	"math"
	"testing"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/trinocular"
)

var t0 = time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)

func TestTokenBucketBasics(t *testing.T) {
	b, err := NewTokenBucket(10, 5) // 10 tok/s, burst 5
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	// Burst drains the initial capacity.
	for i := 0; i < 5; i++ {
		if !b.Allow(now, 1) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow(now, 1) {
		t.Fatal("empty bucket should deny")
	}
	// Half a second refills 5 tokens.
	now = now.Add(500 * time.Millisecond)
	if got := b.Available(now); math.Abs(got-5) > 1e-9 {
		t.Fatalf("available = %v", got)
	}
	if !b.Allow(now, 5) {
		t.Fatal("refilled tokens denied")
	}
	// Capacity caps accumulation.
	now = now.Add(time.Hour)
	if got := b.Available(now); got != 5 {
		t.Fatalf("capped available = %v", got)
	}
}

func TestTokenBucketEdgeCases(t *testing.T) {
	if _, err := NewTokenBucket(0, 5); err == nil {
		t.Fatal("zero rate should error")
	}
	if _, err := NewTokenBucket(5, 0); err == nil {
		t.Fatal("zero capacity should error")
	}
	b, _ := NewTokenBucket(1, 1)
	if !b.Allow(t0, 0) || !b.Allow(t0, -1) {
		t.Fatal("non-positive requests are free")
	}
	// Time going backwards is clamped, not panicking or minting tokens.
	b.Allow(t0, 1)
	if b.Allow(t0.Add(-time.Hour), 1) {
		t.Fatal("backwards time must not refill")
	}
}

func TestTokenBucketRateLongRun(t *testing.T) {
	b, _ := NewTokenBucket(2, 4) // 2 tokens/s
	now := t0
	granted := 0
	for i := 0; i < 1000; i++ {
		now = now.Add(100 * time.Millisecond)
		if b.Allow(now, 1) {
			granted++
		}
	}
	// 100 s of simulated time at 2 tok/s => ~200 grants (+ initial burst).
	if granted < 195 || granted > 210 {
		t.Fatalf("granted = %d, want ~200", granted)
	}
}

func campaignNet(nBlocks int) (*netsim.Network, []netsim.BlockID) {
	net := netsim.NewNetwork(9)
	var ids []netsim.BlockID
	for i := 0; i < nBlocks; i++ {
		blk := &netsim.Block{ID: netsim.MakeBlockID(10, byte(i>>8), byte(i)), Seed: uint64(i)}
		var hosts netsim.Hosts
		for h := 0; h < 60; h++ {
			hosts[h] = netsim.Intermittent{P: 0.7, Seed: uint64(i*256 + h)}
		}
		blk.SetHosts(&hosts)
		net.AddBlock(blk)
		ids = append(ids, blk.ID)
	}
	return net, ids
}

func TestCampaignRun(t *testing.T) {
	net, ids := campaignNet(20)
	c := &Campaign{Net: net, Start: t0, Workers: 8, Seed: 3}
	res, err := c.Run(ids, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("results = %d", len(res))
	}
	for id, r := range res {
		if len(r.Short) != 300 {
			t.Fatalf("block %s has %d samples", id, len(r.Short))
		}
		est := r.Estimator.LongTerm()
		if math.Abs(est-0.7) > 0.1 {
			t.Fatalf("block %s estimate = %v, want ~0.7", id, est)
		}
		if r.Skipped != 0 {
			t.Fatalf("unexpected skips without budget: %d", r.Skipped)
		}
	}
}

func TestCampaignSparseExcluded(t *testing.T) {
	net, ids := campaignNet(3)
	sparse := &netsim.Block{ID: netsim.MakeBlockID(99, 0, 0), Seed: 1}
	sparse.SetHosts(&netsim.Hosts{0: netsim.AlwaysOn{}})
	net.AddBlock(sparse)
	ids = append(ids, sparse.ID)
	c := &Campaign{Net: net, Start: t0, Seed: 3}
	res, err := c.Run(ids, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res[sparse.ID]; ok {
		t.Fatal("sparse block should be excluded")
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
}

func TestCampaignBudgetSkipsRounds(t *testing.T) {
	net, ids := campaignNet(30)
	// Budget far below 30 blocks/round x 15 tokens: some rounds skip.
	budget, err := NewTokenBucket(0.2, 60) // 0.2 tokens per (virtual) second
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Net: net, Start: t0, Seed: 3, Budget: budget,
		Prober: trinocular.Config{MaxProbesPerRound: 15},
	}
	res, err := c.Run(ids, 100)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, r := range res {
		skipped += r.Skipped
		if len(r.Short) != 100 {
			t.Fatal("series must stay on the round grid even when skipping")
		}
	}
	if skipped == 0 {
		t.Fatal("tight budget should skip rounds")
	}
	// 660 s/round * 0.2 tok/s = 132 tokens/round = ~8 block-rounds of 15.
	// With 30 blocks wanting rounds, roughly 2/3 should be skipped.
	frac := float64(skipped) / float64(30*100)
	if frac < 0.4 || frac > 0.9 {
		t.Fatalf("skip fraction = %v", frac)
	}
}

func TestCampaignErrors(t *testing.T) {
	if _, err := (&Campaign{}).Run(nil, 10); err == nil {
		t.Fatal("nil network should error")
	}
	net, ids := campaignNet(1)
	if _, err := (&Campaign{Net: net}).Run(ids, 0); err == nil {
		t.Fatal("zero rounds should error")
	}
	if _, err := (&Campaign{Net: net, Start: t0}).Run([]netsim.BlockID{netsim.MakeBlockID(1, 2, 3)}, 5); err == nil {
		t.Fatal("unknown block should error")
	}
}

func TestCampaignEventsRecorded(t *testing.T) {
	net := netsim.NewNetwork(5)
	blk := &netsim.Block{ID: netsim.MakeBlockID(20, 0, 0), Seed: 2}
	var hosts netsim.Hosts
	for h := 0; h < 50; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	blk.SetHosts(&hosts)
	oStart := t0.Add(100 * 660 * time.Second)
	blk.Outages = []netsim.Interval{{Start: oStart, End: oStart.Add(4 * time.Hour)}}
	net.AddBlock(blk)
	c := &Campaign{Net: net, Start: t0, Seed: 7}
	res, err := c.Run([]netsim.BlockID{blk.ID}, 300)
	if err != nil {
		t.Fatal(err)
	}
	ev := res[blk.ID].Events
	if len(ev) != 2 || !ev[0].Down || ev[1].Down {
		t.Fatalf("events = %+v", ev)
	}
	var _ core.OutageEvent = ev[0]
}
