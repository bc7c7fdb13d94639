package monitor

import (
	"context"
	"testing"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

// TestMonitorRoundAllocFree pins the warm hot path: a monitor round over a
// shard — probe every block as one batched wavefront, observe into the
// estimators, extend the preallocated series — must not touch the heap. With durability on the committed round
// is held to the same budget: commitRound encodes into the shard's reused
// frame buffer and hands it to one write(2), so as long as the round neither
// rotates the segment nor snapshots, it allocates nothing either. One block
// has diurnal hosts and the measured rounds run past the first midnight, so
// drawing a new day's on-periods is inside the budget.
func TestMonitorRoundAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		wal  bool
	}{
		{"batched", false},
		{"wal", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := testNet(7)
			office := &netsim.Block{ID: netsim.MakeBlockID(11, 0, 0), Seed: 11}
			var hosts netsim.Hosts
			for h := 1; h <= 30; h++ {
				hosts[h] = netsim.Diurnal{Phase: 22 * time.Hour, Duration: 6 * time.Hour, StartSigma: time.Hour, Seed: uint64(h)}
			}
			office.SetHosts(&hosts)
			net.AddBlock(office)
			cfg := baseConfig(net, 160)
			cfg.Shards = 1
			if tc.wal {
				cfg.WALDir = t.TempDir()
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := m.shards[0]
			if err := s.rebuild(); err != nil {
				t.Fatal(err)
			}
			if tc.wal {
				defer s.wal.abandon()
			}

			// Warm-up: the initial up transitions land in the event slices
			// and the probe scratch grows its arenas here.
			r := 0
			roundOnce := func() {
				s.probeRound(r)
				if err := s.commitRound(r); err != nil {
					t.Fatal(err)
				}
				r++
			}
			for i := 0; i < 4; i++ {
				roundOnce()
			}

			avg := testing.AllocsPerRun(140, roundOnce)
			if r <= 131 {
				t.Fatalf("%d rounds from midnight do not reach the next", r)
			}
			if avg != 0 {
				t.Fatalf("warm monitor round allocates %.2f times per 8-block round, want 0", avg)
			}
		})
	}
}

// TestReplayAllocFree pins the recovery side of the codec: decoding a record
// into the shard's staging record and applying it — taken as logged, for a
// round a snapshot covers, or replayed through the prober's round machine
// and the estimators, for one past it — works in place, so a warm step
// allocates nothing, however many records and blocks a recovery covers.
func TestReplayAllocFree(t *testing.T) {
	cfg := baseConfig(testNet(8), 128)
	cfg.Shards = 1
	cfg.WALDir = t.TempDir()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := m.shards[0]
	if err := s.rebuild(); err != nil {
		t.Fatal(err)
	}
	defer s.wal.abandon()
	// The state before round 3 is what every replay of round 3 starts from.
	var probers []trinocular.BlockState
	var ests []core.EstimatorState
	for r := 0; r < 4; r++ {
		if r == 3 {
			for i, p := range s.probers {
				probers, ests = append(probers, p.State()), append(ests, s.mons[i].est.State())
			}
		}
		s.probeRound(r)
		if err := s.commitRound(r); err != nil {
			t.Fatal(err)
		}
	}
	payload := append([]byte(nil), s.recBuf[walFrameSize:]...)

	for _, replay := range []bool{false, true} {
		step := func() {
			if err := decodeRecord(payload, &s.rec); err != nil {
				t.Fatal(err)
			}
			for i, mon := range s.mons {
				mon.short, mon.events = mon.short[:3], mon.events[:0]
				mon.est.Restore(ests[i])
				if err := s.probers[i].Restore(probers[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.applyRecord(&s.rec, replay); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Fatalf("warm recovery step (replay %v) allocates %.2f times per 8-block record, want 0", replay, avg)
		}
	}
}

// TestMonitorHeapIsWorkerBound pins the O(workers) steady-state memory
// claim: probe scratch lives in one long-lived BatchContext per shard, so a
// 100x larger world must not change what the contexts retain. The per-block
// series are the measurement output and necessarily scale with the world —
// the bound under test is the probing machinery. Under retries a tap loses
// probes and blacks the vantage point out for the first second of every
// round, so every lane leaves the wavefront and finishes its round through
// the context's send scratch: that scratch is per worker too.
func TestMonitorHeapIsWorkerBound(t *testing.T) {
	for _, retries := range []bool{false, true} {
		measure := func(blocks int) (retained int) {
			net := testNet(blocks)
			cfg := baseConfig(net, 2)
			reg := metrics.New()
			if retries {
				net.SetTap(faults.New(faults.Config{
					Seed:          3,
					LossRate:      0.1,
					BlackoutEvery: timeseries.DefaultRound,
					BlackoutFor:   time.Second,
				}, testEpoch))
				cfg.prober = trinocular.Config{Retry: trinocular.RetryConfig{MaxAttempts: 3}}
				cfg.Metrics = reg
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("run over %d blocks not completed: %+v", blocks, res)
			}
			if n := reg.Snapshot().Counter("trinocular.retries"); retries && n < int64(blocks) {
				t.Fatalf("%d retries over %d blocks: the retry continuation barely ran", n, blocks)
			}
			for _, s := range m.shards {
				retained += s.bc.RetainedBytes()
			}
			return retained
		}

		small, big, bigger := measure(100), measure(10000), measure(20000)
		if small == 0 {
			t.Fatal("contexts retain no scratch; the measurement is vacuous")
		}
		// The scratch plateaus: a small world retains less (its batch groups
		// and route cache never fill), but past the plateau doubling the
		// world must not move the number at all — the bound is O(shards),
		// not O(blocks).
		if bigger > big {
			t.Fatalf("retries %v: probe scratch grew with the world: %d bytes over 20000 blocks vs %d over 10000", retries, bigger, big)
		}
		// The retry scratch is a delivery buffer with a route cache of its
		// own, so a run that retries retains up to one more cache a shard.
		perShardCap := 64 << 10
		if retries {
			perShardCap = 96 << 10
		}
		if bigger > 4*perShardCap {
			t.Fatalf("retries %v: retained scratch %d bytes exceeds %d per shard", retries, bigger, perShardCap)
		}
	}
}
