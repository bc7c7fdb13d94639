package analysis

import (
	"fmt"

	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// FaultSweep charts how classification accuracy degrades under injected
// measurement-path faults: one synthetic world is measured fault-free and
// then under increasing packet loss and ICMP rate-limiting intensity, each
// run compared against survey ground truth (full enumeration of the same
// rounds, the paper's §3.2.3 validation method). The resilient probe path
// (retries, gap-filling, quarantine) is what keeps the curves flat at the
// fault levels the real deployment saw (~2% loss).

// FaultSweepConfig controls the sweep.
type FaultSweepConfig struct {
	// Blocks is the world size (default 300).
	Blocks int
	// Days of probing per run (default 7).
	Days int
	Seed uint64
	// LossRates are the packet-loss intensities to sweep (default
	// 0, 0.02, 0.05, 0.10).
	LossRates []float64
	// RateLimits are the probes-per-round rate-limit caps to sweep; 0 means
	// unlimited (default 4, 2).
	RateLimits []int
	// Retry is the prober's retry policy for every run (zero: no retries).
	Retry trinocular.RetryConfig
}

func (c FaultSweepConfig) withDefaults() FaultSweepConfig {
	if c.Blocks == 0 {
		c.Blocks = 300
	}
	if c.Days == 0 {
		c.Days = 7
	}
	if c.LossRates == nil {
		c.LossRates = []float64{0, 0.02, 0.05, 0.10}
	}
	if c.RateLimits == nil {
		c.RateLimits = []int{4, 2}
	}
	return c
}

// FaultSweepPoint is one fault intensity level of the sweep.
type FaultSweepPoint struct {
	// Label names the fault configuration ("loss=2%", "ratelimit=4/round").
	Label string
	// Measured, Partial, Quarantined and Errors describe how the population
	// fared.
	Measured, Partial, Quarantined, Errors int
	// Compared is how many blocks had both a measurement and ground truth.
	Compared int
	// StrictAgree is the fraction of compared blocks whose strict-diurnal
	// verdict matches ground truth; EitherAgree compares the combined
	// strict-or-relaxed verdict.
	StrictAgree, EitherAgree float64
	// Faults is the injector's total accounting for the run.
	Faults faults.Stats
}

// FaultSweep runs the sweep and returns one point per fault level, the
// fault-free baseline first.
func FaultSweep(cfg FaultSweepConfig) ([]FaultSweepPoint, error) {
	cfg = cfg.withDefaults()
	w, err := world.Generate(world.Config{Blocks: cfg.Blocks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	truth, err := surveyTruth(w, cfg)
	if err != nil {
		return nil, err
	}

	var points []FaultSweepPoint
	for _, lvl := range faults.SweepLevels(cfg.Seed, cfg.LossRates, cfg.RateLimits) {
		st, err := MeasureWorld(w, StudyConfig{
			Days:   cfg.Days,
			Seed:   cfg.Seed,
			Faults: lvl.Config,
			Retry:  cfg.Retry,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lvl.Label, err)
		}
		points = append(points, scoreStudy(lvl.Label, st, truth))
	}
	return points, nil
}

// surveyTruth classifies every block from full enumeration of the same
// rounds the study probes — the ground truth a survey provides.
func surveyTruth(w *world.World, cfg FaultSweepConfig) (map[int]core.DiurnalClass, error) {
	pl := core.NewPipeline(w.Net, core.PipelineConfig{
		Start:  DefaultStart,
		Rounds: RoundsForDays(cfg.Days),
		Seed:   cfg.Seed,
	})
	truth := make(map[int]core.DiurnalClass, len(w.Blocks))
	for i, info := range w.Blocks {
		series, err := pl.Survey(info.ID)
		if err != nil {
			return nil, err
		}
		res, _, err := core.ClassifySeries(series)
		if err != nil {
			return nil, err
		}
		truth[i] = res.Class
	}
	return truth, nil
}

func scoreStudy(label string, st *Study, truth map[int]core.DiurnalClass) FaultSweepPoint {
	pt := FaultSweepPoint{
		Label:       label,
		Partial:     st.PartialCount(),
		Quarantined: st.QuarantinedCount(),
		Errors:      st.ErrorCount(),
		Faults:      st.FaultTotals(),
	}
	var strictOK, eitherOK int
	for i, b := range st.Blocks {
		if b.ErrMsg != "" || b.Sparse || b.Quarantined {
			continue
		}
		pt.Measured++
		t, ok := truth[i]
		if !ok {
			continue
		}
		pt.Compared++
		if (b.Class == core.StrictDiurnal) == (t == core.StrictDiurnal) {
			strictOK++
		}
		if b.Class.IsDiurnal() == t.IsDiurnal() {
			eitherOK++
		}
	}
	if pt.Compared > 0 {
		pt.StrictAgree = float64(strictOK) / float64(pt.Compared)
		pt.EitherAgree = float64(eitherOK) / float64(pt.Compared)
	}
	return pt
}
