package core

import (
	"runtime"
	"testing"

	"sleepnet/internal/dsp"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// TestDetectDiurnalAllocBudget pins the steady-state allocation count of
// one classification. With a warm plan cache and a caller scratch nothing
// is allocated: the detrended series, the transform temporaries and the
// spectrum's bins all live in the scratch. The pooled DetectDiurnal wrapper
// is allowed one allocation for occasional pool misses, and is counted only
// without -race, under which sync.Pool drops items at random. A failure means a
// change put a transform temporary or a retained spectrum back on the
// per-block path.
func TestDetectDiurnalAllocBudget(t *testing.T) {
	const days = 7
	vals := synthSeries(days, diurnalWave) // 916 rounds: a realistic non-power-of-two length

	sc := dsp.NewScratch()
	if _, err := DetectDiurnalScratch(vals, days, sc); err != nil {
		t.Fatal(err)
	}

	scratchAvg := testing.AllocsPerRun(20, func() {
		if _, err := DetectDiurnalScratch(vals, days, sc); err != nil {
			t.Fatal(err)
		}
	})
	if scratchAvg > 0 {
		t.Errorf("DetectDiurnalScratch allocates %.1f/run, budget 0", scratchAvg)
	}

	if raceEnabled {
		t.Log("pooled wrapper not counted: sync.Pool drops items under the race detector")
		return
	}
	pooledAvg := testing.AllocsPerRun(20, func() {
		if _, err := DetectDiurnal(vals, days); err != nil {
			t.Fatal(err)
		}
	})
	if pooledAvg > 1 {
		t.Errorf("DetectDiurnal allocates %.1f/run, budget 1 (pool slack)", pooledAvg)
	}
}

// TestRunAllAllocBudget holds a batch campaign to DESIGN §11's rule: with a
// warm pipeline, what RunAll allocates a block — its prober and estimator,
// not its per-round record — does not grow with the campaign's length. A
// block's round grid, Âo and outage arrays live in lane storage a worker
// reuses group after group; fresh per-round arrays, 33 B a block-round
// when each block got its own, show as about 50 KB more a block at 14 days
// than at 2. Counted only without -race, as the other allocation tests.
func TestRunAllAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	w, err := world.Generate(world.Config{Blocks: 40, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]netsim.BlockID, len(w.Blocks))
	for i, b := range w.Blocks {
		ids[i] = b.ID
	}
	perBlock := func(days int) float64 {
		pl := NewPipeline(w.Net, PipelineConfig{Start: start, Rounds: days * 86400 / 660, Seed: 43})
		fn := func(int, *BlockRun, error) {}
		pl.RunAll(ids, 1, fn) // warm: lane storage sized, outage arrays grown
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl.RunAll(ids, 1, fn)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ids))
	}
	short, long := perBlock(2), perBlock(14)
	t.Logf("heap allocated a block: %.0f B at 2 days, %.0f B at 14 days", short, long)
	if long-short > 1024 {
		t.Errorf("a 14-day block allocates %.0f B more than a 2-day one, budget 1 KB: a per-round array is allocated a block", long-short)
	}
}
