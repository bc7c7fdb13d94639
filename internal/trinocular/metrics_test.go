package trinocular

import (
	"testing"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
)

// TestProberMetricsMatchObservations cross-checks the registry counters
// against the per-round observations the prober returns: the exported
// signal stream must agree with the data the estimators consume.
func TestProberMetricsMatchObservations(t *testing.T) {
	n := netsim.NewNetwork(5)
	id := netsim.MakeBlockID(10, 1, 2)
	blk := buildBlock(id, 20, 30, 0.4)
	n.AddBlock(blk)

	reg := metrics.New()
	p := New(n, Config{Metrics: reg}, 11)
	if err := p.AddBlock(id, blk.EverActive()); err != nil {
		t.Fatal(err)
	}

	var positives, unreachables, retries, sendErrors, rounds int
	for r := 0; r < 200; r++ {
		obs, err := p.ProbeRound(epoch.Add(time.Duration(r)*660*time.Second), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		positives += obs.Positive
		unreachables += obs.Unreachable
		retries += obs.Retries
		sendErrors += obs.SendErrors
		rounds++
	}

	snap := reg.Snapshot()
	checks := map[string]int64{
		"trinocular.rounds":       int64(rounds),
		"trinocular.positives":    int64(positives),
		"trinocular.unreachables": int64(unreachables),
		"trinocular.retries":      int64(retries),
		"trinocular.send_errors":  int64(sendErrors),
		"trinocular.probes_sent":  p.ProbesSent(),
	}
	for name, want := range checks {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Counter("trinocular.probes_sent") == 0 {
		t.Fatal("no probes counted")
	}
}

// TestProberNilRegistryUnchanged pins the nil-registry fast path: the same
// seeded campaign with and without instrumentation produces identical
// observations.
func TestProberNilRegistryUnchanged(t *testing.T) {
	run := func(reg *metrics.Registry) []RoundObs {
		n := netsim.NewNetwork(5)
		id := netsim.MakeBlockID(10, 1, 2)
		blk := buildBlock(id, 20, 30, 0.4)
		n.AddBlock(blk)
		p := New(n, Config{Metrics: reg}, 11)
		if err := p.AddBlock(id, blk.EverActive()); err != nil {
			t.Fatal(err)
		}
		var out []RoundObs
		for r := 0; r < 100; r++ {
			obs, err := p.ProbeRound(epoch.Add(time.Duration(r)*660*time.Second), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, obs)
		}
		return out
	}
	plain := run(nil)
	instr := run(metrics.New())
	for i := range plain {
		if plain[i] != instr[i] {
			t.Fatalf("round %d diverged: %+v vs %+v", i, plain[i], instr[i])
		}
	}
}
