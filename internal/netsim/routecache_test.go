package netsim_test

import (
	"context"
	"testing"
	"time"

	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
)

// TestMonitorShardResolvesEachRouteOnce pins the route cache's size against
// the monitor's use of it: a 2-shard campaign over 1,018 blocks deals each
// shard 509 blocks, eight batch groups a round through one BatchBuffer, and
// the cache must hold them all — so over three rounds each block's route is
// resolved once, not once per block-round as a cache that clears between
// groups would.
func TestMonitorShardResolvesEachRouteOnce(t *testing.T) {
	const blocks = 1018
	n := netsim.NewNetwork(0xbeef)
	for i := 0; i < blocks; i++ {
		id := netsim.MakeBlockID(10, byte(i/256), byte(i%256))
		blk := &netsim.Block{ID: id, Seed: uint64(id) ^ 0xbeef}
		var hosts netsim.Hosts
		for h := 1; h <= 20; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 21; h <= 26; h++ {
			hosts[h] = netsim.Intermittent{P: 0.6, Seed: uint64(id) + uint64(h)*257}
		}
		blk.SetHosts(&hosts)
		n.AddBlock(blk)
	}
	m, err := monitor.New(monitor.Config{
		Net:    n,
		Start:  time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC),
		Rounds: 3,
		Shards: 2,
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("campaign not completed: %+v", res)
	}
	if got := n.RoutesResolved(); got > blocks {
		t.Fatalf("the campaign resolved %d routes for %d blocks over 3 rounds; want at most one a block", got, blocks)
	}
}
