package core

import (
	"testing"

	"sleepnet/internal/dsp"
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
