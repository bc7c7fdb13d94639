package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/stats"
)

// SweepConfig describes the controlled diurnal-block simulation of §3.2.2:
// one /24 with Stable always-on addresses and NDiurnal addresses that are
// up for upHours and down the rest of each day, with phase spread Φ and
// per-day duration noise. The sweep repeats the experiment
// PerBatch times in each of Batches batches and reports detection accuracy
// (fraction of experiments classified strictly diurnal).
type SweepConfig struct {
	Batches  int // default 10 (paper)
	PerBatch int // default 100 (paper)
	Weeks    int // default 4 (paper)
	Stable   int // default 50 (paper)
	NDiurnal int // default 100 (paper)
	// PhaseSpread is Φ: each address's daily on-time is drawn once,
	// uniformly in [0, Φ] after the base hour.
	PhaseSpread time.Duration
	// DurationSigma (σd) is per-day noise on the on-period's length.
	DurationSigma time.Duration
	Seed          uint64
	Workers       int
}

// upHours is the daily on-period length.
const upHours = 8

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Batches == 0 {
		c.Batches = 10
	}
	if c.PerBatch == 0 {
		c.PerBatch = 100
	}
	if c.Weeks == 0 {
		c.Weeks = 4
	}
	if c.Stable == 0 {
		c.Stable = 50
	}
	if c.NDiurnal == 0 {
		c.NDiurnal = 100
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// SweepPoint is one x-value of a sensitivity figure: detection accuracy per
// batch plus its median and quartiles (the paper's error bars).
type SweepPoint struct {
	// X is the varied parameter's value at this point (count or hours).
	X float64
	// BatchAccuracy is the per-batch detection accuracy.
	BatchAccuracy []float64
	// Median, Q1, Q3 summarize the batches.
	Median, Q1, Q3 float64
	// Mean is the overall accuracy across all experiments.
	Mean float64
}

// RunSweepPoint runs Batches x PerBatch controlled experiments and scores
// strict-diurnal detection accuracy.
//
// It keeps a worker pool of its own, the one batch campaign that does not go
// through core.Pipeline.RunAll: its jobs are not blocks of one network but
// whole single-block networks, each with a pipeline seeded per experiment,
// so regrouping them into one campaign would re-seed every prober and move
// Figs 7–9.
func RunSweepPoint(x float64, cfg SweepConfig) (SweepPoint, error) {
	cfg = cfg.withDefaults()
	if cfg.NDiurnal < 1 || cfg.NDiurnal+cfg.Stable > 255 {
		return SweepPoint{}, fmt.Errorf("analysis: bad population %d stable + %d diurnal", cfg.Stable, cfg.NDiurnal)
	}
	pt := SweepPoint{X: x, BatchAccuracy: make([]float64, cfg.Batches)}
	type job struct{ batch, exp int }
	type res struct {
		batch    int
		detected bool
		err      error
	}
	jobs := make(chan job)
	results := make(chan res)
	var wg sync.WaitGroup
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				det, err := runControlledExperiment(cfg, j.batch, j.exp)
				results <- res{batch: j.batch, detected: det, err: err}
			}
		}()
	}
	go func() {
		for b := 0; b < cfg.Batches; b++ {
			for e := 0; e < cfg.PerBatch; e++ {
				jobs <- job{b, e}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	detectedPerBatch := make([]int, cfg.Batches)
	totalDetected := 0
	var firstErr error
	for r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.detected {
			detectedPerBatch[r.batch]++
			totalDetected++
		}
	}
	if firstErr != nil {
		return SweepPoint{}, firstErr
	}
	for b := range pt.BatchAccuracy {
		pt.BatchAccuracy[b] = float64(detectedPerBatch[b]) / float64(cfg.PerBatch)
	}
	sorted := append([]float64(nil), pt.BatchAccuracy...)
	sort.Float64s(sorted)
	qs := stats.QuantilesSorted(sorted, 0.25, 0.5, 0.75)
	pt.Q1, pt.Median, pt.Q3 = qs[0], qs[1], qs[2]
	pt.Mean = float64(totalDetected) / float64(cfg.Batches*cfg.PerBatch)
	return pt, nil
}

// runControlledExperiment builds one simulated block and reports whether
// the pipeline classifies it strictly diurnal.
func runControlledExperiment(cfg SweepConfig, batch, exp int) (bool, error) {
	seed := cfg.Seed ^ uint64(batch)<<32 ^ uint64(exp)<<8 ^ 0xf00d
	r := rand.New(rand.NewSource(int64(seed)))
	id := netsim.MakeBlockID(172, byte(batch), byte(exp))
	blk := &netsim.Block{ID: id, Seed: seed}
	var hosts netsim.Hosts
	h := 0
	for ; h < cfg.Stable; h++ {
		hosts[h] = netsim.AlwaysOn{}
	}
	// Base on-time 09:00 plus a per-address uniform offset in [0, Φ].
	for i := 0; i < cfg.NDiurnal; i++ {
		phi := time.Duration(r.Float64() * float64(cfg.PhaseSpread))
		hosts[h] = netsim.Diurnal{
			Phase:         9*time.Hour + phi,
			Duration:      upHours * time.Hour,
			DurationSigma: cfg.DurationSigma,
			Seed:          seed + uint64(h)*977,
		}
		h++
	}
	blk.SetHosts(&hosts)
	net := netsim.NewNetwork(seed ^ 0xbeef)
	net.AddBlock(blk)
	pl := core.NewPipeline(net, core.PipelineConfig{
		Start:  DefaultStart,
		Rounds: RoundsForDays(cfg.Weeks * 7),
		Seed:   seed ^ 0xc0de,
	})
	run, err := pl.RunBlock(id)
	if err != nil {
		return false, err
	}
	res, err := pl.Classify(run)
	if err != nil {
		return false, err
	}
	return res.Class == core.StrictDiurnal, nil
}

// SweepDiurnalCount reproduces Fig 7: accuracy as the number of diurnal
// addresses varies (Φ = σs = σd = 0).
func SweepDiurnalCount(counts []int, cfg SweepConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(counts))
	for _, n := range counts {
		c := cfg
		c.NDiurnal = n
		pt, err := RunSweepPoint(float64(n), c)
		if err != nil {
			return nil, fmt.Errorf("n_d=%d: %w", n, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// SweepPhaseSpread reproduces Fig 8: accuracy as maximum phase Φ varies
// (n_d = 100, σs = σd = 0).
func SweepPhaseSpread(hours []float64, cfg SweepConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(hours))
	for _, hh := range hours {
		c := cfg
		c.PhaseSpread = time.Duration(hh * float64(time.Hour))
		pt, err := RunSweepPoint(hh, c)
		if err != nil {
			return nil, fmt.Errorf("phi=%vh: %w", hh, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// SweepDurationSigma reproduces Fig 9: accuracy as uptime-duration noise σd
// varies (n_d = 100, Φ = σs = 0).
func SweepDurationSigma(hours []float64, cfg SweepConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(hours))
	for _, hh := range hours {
		c := cfg
		c.DurationSigma = time.Duration(hh * float64(time.Hour))
		pt, err := RunSweepPoint(hh, c)
		if err != nil {
			return nil, fmt.Errorf("sigma_d=%vh: %w", hh, err)
		}
		out = append(out, pt)
	}
	return out, nil
}
