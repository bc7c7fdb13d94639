package core

import (
	"testing"

	"sleepnet/internal/dsp"
)

// TestDetectDiurnalAllocBudget pins the steady-state allocation count of
// one classification. With a warm plan cache and a caller scratch the only
// allocations left are the retained result: the Spectrum struct and its
// Coef/Amp storage (3 allocations). The pooled DetectDiurnal wrapper is
// allowed one more for occasional pool misses. A failure means a change
// put transform temporaries back on the per-block path.
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
	if scratchAvg > 3 {
		t.Errorf("DetectDiurnalScratch allocates %.1f/run, budget 3 (Spectrum + Coef + Amp)", scratchAvg)
	}

	pooledAvg := testing.AllocsPerRun(20, func() {
		if _, err := DetectDiurnal(vals, days); err != nil {
			t.Fatal(err)
		}
	})
	if pooledAvg > 4 {
		t.Errorf("DetectDiurnal allocates %.1f/run, budget 4 (retained Spectrum + pool slack)", pooledAvg)
	}
}
