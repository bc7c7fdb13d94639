// Package analysis implements the paper's experiments: each figure and
// table of the evaluation (§3–§5) has a function here that runs the
// measurement pipeline over a simulated world and computes the reported
// quantity — estimator correlation (Figs 4–5), detection validation
// (Table 1), controlled sensitivity sweeps (Figs 7–9), cross-site agreement
// (Table 2), the frequency distribution (Fig 10), long-term trends
// (Fig 11), world maps (Figs 12–13), country and region tables (Tables
// 3–4), phase-longitude analysis (Fig 14), allocation-date trends (Fig 15),
// GDP correlation (Fig 16), factorial ANOVA (Table 5), and link-technology
// correlation (Fig 17).
package analysis

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/outage"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// DefaultStart matches the A12w collection start (2013-04-24 17:18 UTC).
var DefaultStart = time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)

// RoundsForDays returns the number of 11-minute rounds that cover the given
// number of days with a safety margin for midnight trimming.
func RoundsForDays(days int) int {
	return days*86400/660 + 60
}

// MeasuredBlock is the per-block summary a study keeps: the classification
// and the small diagnostics the experiments consume (full per-round series
// are dropped to keep world-scale studies in memory).
type MeasuredBlock struct {
	Info *world.BlockInfo
	// Class is the spectral classification of the estimated series.
	Class core.DiurnalClass
	// Phase is the 1-cycle/day FFT phase (meaningful when diurnal).
	Phase float64
	// StrongestCPD is the strongest periodicity in cycles/day.
	StrongestCPD float64
	// Days is N_d of the trimmed series.
	Days int
	// ProbesSent is the probing cost of this block.
	ProbesSent int64
	// SlopePerDay is the linear drift of the trimmed Âs series — the §2.2
	// stationarity diagnostic.
	SlopePerDay float64
	// Outage summarizes the block's detected outage episodes.
	Outage outage.Summary
	// Sparse marks blocks Trinocular refused to probe (policy floor).
	Sparse bool
	// ErrMsg records any other per-block failure (empty when measured).
	ErrMsg string
	// Partial marks blocks measured through recoverable gaps: some rounds
	// produced no observation (blackout, rate limiting) and were gap-filled
	// before classification. Partial blocks still count as measured.
	Partial bool
	// Quarantined marks blocks whose failed-round fraction crossed the
	// study's quarantine threshold; their classification is unreliable and
	// they are excluded from aggregates.
	Quarantined bool
	// FailedRounds, Retries, SendErrors and RateLimited are the block's
	// degradation counters from the probing run.
	FailedRounds int
	Retries      int
	SendErrors   int
	RateLimited  int
	// Faults is the injector's per-block accounting, when a fault model was
	// active.
	Faults faults.Stats
}

// Err returns the recorded failure as an error, or nil.
func (b MeasuredBlock) Err() error {
	if b.ErrMsg == "" {
		return nil
	}
	return errors.New(b.ErrMsg)
}

// Study is a measured world: the block population with classifications.
type Study struct {
	World  *world.World
	Blocks []MeasuredBlock
	// Cfg is the pipeline configuration used.
	Cfg core.PipelineConfig
}

// StudyConfig controls a world measurement.
type StudyConfig struct {
	// Days of probing (default 14).
	Days int
	// Seed for the pipeline (artifact injection, walks).
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// RestartInterval forwards the prober restart artifact (zero: none).
	RestartInterval time.Duration
	// MissingRate/DuplicateRate forward collection artifacts.
	MissingRate, DuplicateRate float64
	// Start overrides the campaign start time.
	Start time.Time
	// Faults, when active, attaches a fault injector to the world's network
	// for the duration of the measurement. Its Epoch defaults to Start.
	Faults faults.Config
	// Retry forwards the prober's retry policy for vantage-local failures.
	Retry trinocular.RetryConfig
	// QuarantineFailedFrac is the failed-round fraction above which a block
	// is quarantined instead of classified (default 0.25).
	QuarantineFailedFrac float64
	// CheckpointPath, when set, appends each measured block to a JSONL
	// checkpoint file as it completes.
	CheckpointPath string
	// Resume skips blocks already present in CheckpointPath.
	Resume bool
	// Metrics, when non-nil, receives study-level counters (blocks measured,
	// sparse, failed, partial, quarantined) plus a per-block wall-time
	// histogram, and is forwarded to the pipeline and prober underneath.
	Metrics *metrics.Registry
}

func (c StudyConfig) withDefaults() StudyConfig {
	if c.Days == 0 {
		c.Days = 14
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.QuarantineFailedFrac == 0 {
		c.QuarantineFailedFrac = 0.25
	}
	return c
}

// studyGroupSize is how many blocks one worker measures in lockstep so their
// rounds share a wavefront's boundary crossing. Per-block results do not
// depend on it (TestMeasureWorldGroupSizeInvariance); 64 amortizes the
// crossing while keeping a worker's in-flight records small.
const studyGroupSize = 64

// MeasureWorld runs the full §2 pipeline over every block of the world in
// parallel and returns the per-block classifications.
func MeasureWorld(w *world.World, sc StudyConfig) (*Study, error) {
	return measureWorld(w, sc, studyGroupSize)
}

// measureWorld is MeasureWorld with the lockstep group size a parameter, so
// the invariance test can vary it.
func measureWorld(w *world.World, sc StudyConfig, groupSize int) (*Study, error) {
	sc = sc.withDefaults()
	if len(w.Blocks) == 0 {
		return nil, fmt.Errorf("analysis: world has no blocks")
	}
	cfg := core.PipelineConfig{
		Start:         sc.Start,
		Rounds:        RoundsForDays(sc.Days),
		Seed:          sc.Seed,
		MissingRate:   sc.MissingRate,
		DuplicateRate: sc.DuplicateRate,
		Prober:        trinocular.Config{RestartInterval: sc.RestartInterval, Retry: sc.Retry},
		Metrics:       sc.Metrics,
	}
	pl := core.NewPipeline(w.Net, cfg)
	sm := newStudyMetrics(sc.Metrics)
	study := &Study{World: w, Cfg: pl.Config(), Blocks: make([]MeasuredBlock, len(w.Blocks))}

	// Attach the fault injector for the duration of the measurement.
	var inj *faults.Injector
	if sc.Faults.Active() {
		fc := sc.Faults
		if fc.Epoch.IsZero() {
			fc.Epoch = sc.Start
		}
		inj = faults.New(fc)
		w.Net.SetTap(inj)
		defer w.Net.SetTap(nil)
	}

	// Block-level checkpointing: blocks measured by a previous (killed) run
	// are loaded from the JSONL file and skipped; newly measured blocks are
	// appended as they complete.
	var cw *checkpointWriter
	done := make(map[int]bool)
	if sc.CheckpointPath != "" {
		var err error
		cw, done, err = openCheckpoint(sc.CheckpointPath, w, sc, study)
		if err != nil {
			return nil, err
		}
		defer cw.Close()
	}

	// Work is dealt in groups: one worker measures a group of blocks in
	// lockstep so every round of the group crosses the netsim boundary as
	// one batched wavefront (RunBlocks).
	var groups [][]int
	var cur []int
	for i := range w.Blocks {
		if done[i] {
			continue
		}
		cur = append(cur, i)
		if len(cur) == groupSize {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}

	var wg sync.WaitGroup
	groupCh := make(chan []int)
	errCh := make(chan error, sc.Workers)
	commit := func(i int, mb MeasuredBlock) {
		finishBlock(&mb, inj, cfg.Rounds, sc.QuarantineFailedFrac)
		sm.record(mb)
		study.Blocks[i] = mb
		if cw != nil {
			if err := cw.Append(i, mb); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}
	}
	for wk := 0; wk < sc.Workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]netsim.BlockID, 0, groupSize)
			for idxs := range groupCh {
				ids = ids[:0]
				for _, i := range idxs {
					ids = append(ids, w.Blocks[i].ID)
				}
				stop := sm.blockSeconds.Time()
				runs, errs := pl.RunBlocks(ids)
				stop()
				for k, i := range idxs {
					commit(i, blockFromRun(w.Blocks[i], runs[k], errs[k]))
				}
			}
		}()
	}
	for _, g := range groups {
		groupCh <- g
	}
	close(groupCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return study, nil
}

// studyMetrics caches the study-level instruments; all handles are nil (and
// every use a no-op) when the study is uninstrumented.
type studyMetrics struct {
	measured     *metrics.Counter
	sparse       *metrics.Counter
	failed       *metrics.Counter
	partial      *metrics.Counter
	quarantined  *metrics.Counter
	blockSeconds *metrics.Histogram
}

func newStudyMetrics(r *metrics.Registry) studyMetrics {
	return studyMetrics{
		measured:    r.Counter("analysis.blocks_measured"),
		sparse:      r.Counter("analysis.blocks_sparse"),
		failed:      r.Counter("analysis.blocks_failed"),
		partial:     r.Counter("analysis.blocks_partial"),
		quarantined: r.Counter("analysis.blocks_quarantined"),
		blockSeconds: r.Histogram("analysis.block_seconds",
			metrics.UnitSeconds, metrics.ExpBuckets(1e-4, 10, 7)),
	}
}

// record tallies one finished block into the study counters.
func (m studyMetrics) record(mb MeasuredBlock) {
	switch {
	case mb.Sparse:
		m.sparse.Inc()
	case mb.ErrMsg != "":
		m.failed.Inc()
	case mb.Quarantined:
		m.quarantined.Inc()
	default:
		m.measured.Inc()
		if mb.Partial {
			m.partial.Inc()
		}
	}
}

// finishBlock attaches the injector's per-block accounting and applies the
// quarantine policy.
func finishBlock(mb *MeasuredBlock, inj *faults.Injector, rounds int, quarantineFrac float64) {
	if inj != nil {
		mb.Faults = inj.BlockStats(mb.Info.ID)
	}
	if mb.ErrMsg != "" || mb.Sparse || rounds <= 0 {
		return
	}
	frac := float64(mb.FailedRounds) / float64(rounds)
	switch {
	case frac > quarantineFrac:
		mb.Quarantined = true
		mb.Partial = false
	case mb.FailedRounds > 0:
		mb.Partial = true
	}
}

// blockFromRun converts one block's pipeline result (a RunBlocks group slot)
// into its study record.
func blockFromRun(info *world.BlockInfo, run *core.BlockRun, err error) MeasuredBlock {
	mb := MeasuredBlock{Info: info}
	if err != nil {
		if isSparse(err) {
			mb.Sparse = true
		} else {
			mb.ErrMsg = err.Error()
		}
		return mb
	}
	mb.FailedRounds = run.FailedRounds
	mb.Retries = run.Retries
	mb.SendErrors = run.SendErrors
	mb.RateLimited = run.RateLimited
	mb.Class = run.Result.Class
	mb.Phase = run.Result.Phase
	mb.Days = run.Days
	mb.ProbesSent = run.ProbesSent
	mb.SlopePerDay = run.SlopePerDay
	// Use the exact series duration, not the integer day count: a trimmed
	// series spans ~13.995 days, and bin/floor(days) would misscale every
	// frequency by ~7%.
	if exactDays := run.Trimmed.Days(); exactDays > 0 {
		mb.StrongestCPD = float64(run.Result.PeakBin) / exactDays
	}
	if eps, err := outage.Episodes(run.Outages, run.Short.Len()); err == nil {
		mb.Outage = outage.Summarize(eps, run.Short.Len())
	}
	return mb
}

func isSparse(err error) bool { return errors.Is(err, trinocular.ErrTooSparse) }

// Measured returns the blocks that produced a trustworthy classification:
// not sparse, not failed, not quarantined. Partial blocks (recoverable gaps,
// gap-filled) are included.
func (s *Study) Measured() []MeasuredBlock {
	out := make([]MeasuredBlock, 0, len(s.Blocks))
	for _, b := range s.Blocks {
		if b.ErrMsg == "" && !b.Sparse && !b.Quarantined {
			out = append(out, b)
		}
	}
	return out
}

// ErrorCount returns how many blocks failed measurement outright.
func (s *Study) ErrorCount() int {
	n := 0
	for _, b := range s.Blocks {
		if b.ErrMsg != "" {
			n++
		}
	}
	return n
}

// FirstError returns one recorded per-block error message, or "".
func (s *Study) FirstError() string {
	for _, b := range s.Blocks {
		if b.ErrMsg != "" {
			return b.ErrMsg
		}
	}
	return ""
}

// QuarantinedCount returns how many blocks the quarantine policy excluded.
func (s *Study) QuarantinedCount() int {
	n := 0
	for _, b := range s.Blocks {
		if b.Quarantined {
			n++
		}
	}
	return n
}

// PartialCount returns how many measured blocks carried recoverable gaps.
func (s *Study) PartialCount() int {
	n := 0
	for _, b := range s.Blocks {
		if b.Partial {
			n++
		}
	}
	return n
}

// FaultTotals sums the injector's per-block accounting over all blocks.
func (s *Study) FaultTotals() faults.Stats {
	var t faults.Stats
	for _, b := range s.Blocks {
		t.Probes += b.Faults.Probes
		t.Dropped += b.Faults.Dropped
		t.RateLimited += b.Faults.RateLimited
		t.SendErrors += b.Faults.SendErrors
		t.Corrupted += b.Faults.Corrupted
	}
	return t
}

// DegradationTotals sums the probing-side degradation counters.
func (s *Study) DegradationTotals() (failedRounds, retries, sendErrors, rateLimited int) {
	for _, b := range s.Blocks {
		failedRounds += b.FailedRounds
		retries += b.Retries
		sendErrors += b.SendErrors
		rateLimited += b.RateLimited
	}
	return
}

// CountByClass tallies the measured population.
func (s *Study) CountByClass() map[core.DiurnalClass]int {
	out := make(map[core.DiurnalClass]int)
	for _, b := range s.Measured() {
		out[b.Class]++
	}
	return out
}

// DiurnalFraction returns the strict and either (strict+relaxed) fractions
// of the measured population.
func (s *Study) DiurnalFraction() (strict, either float64) {
	m := s.Measured()
	if len(m) == 0 {
		return 0, 0
	}
	var ns, ne int
	for _, b := range m {
		switch b.Class {
		case core.StrictDiurnal:
			ns++
			ne++
		case core.RelaxedDiurnal:
			ne++
		}
	}
	return float64(ns) / float64(len(m)), float64(ne) / float64(len(m))
}

// ProbeBudget summarizes probing cost: mean probes per block per hour.
func (s *Study) ProbeBudget() float64 {
	m := s.Measured()
	if len(m) == 0 {
		return 0
	}
	var total int64
	for _, b := range m {
		total += b.ProbesSent
	}
	hours := float64(s.Cfg.Rounds) * s.Cfg.Period.Hours()
	return float64(total) / float64(len(m)) / hours
}

// StationaryFraction reports the share of measured blocks whose Âs series
// drifts by less than one address per day in availability units (slope <
// 1/|E(b)|) — the §2.2 data-appropriateness check; the paper found 80.3%
// of survey blocks stationary.
func (s *Study) StationaryFraction() float64 {
	m := s.Measured()
	if len(m) == 0 {
		return 0
	}
	stationary := 0
	for _, b := range m {
		ever := b.Info.NumStable + b.Info.NumDiurnal + b.Info.NumIntermittent
		if ever <= 0 {
			ever = 256
		}
		limit := 1 / float64(ever)
		if b.SlopePerDay <= limit && b.SlopePerDay >= -limit {
			stationary++
		}
	}
	return float64(stationary) / float64(len(m))
}

// SelectBlocks returns measured blocks passing the filter.
func (s *Study) SelectBlocks(keep func(MeasuredBlock) bool) []MeasuredBlock {
	var out []MeasuredBlock
	for _, b := range s.Measured() {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// sortedCountryCodes returns the country codes present among measured
// blocks, sorted for deterministic iteration.
func (s *Study) sortedCountryCodes() []string {
	seen := make(map[string]bool)
	for _, b := range s.Measured() {
		seen[b.Info.Country.Code] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
