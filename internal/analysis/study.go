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
	"sort"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/outage"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// DefaultStart matches the A12w collection start (2013-04-24 17:18 UTC).
var DefaultStart = time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)

// RoundsForDays returns the number of 11-minute rounds that cover the given
// number of days with a safety margin for midnight trimming.
func RoundsForDays(days int) int {
	return days*86400/int(timeseries.DefaultRound/time.Second) + 60
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

// Study is a measured world: the block population with classifications.
type Study struct {
	World  *world.World
	Blocks []MeasuredBlock
	// Cfg is the pipeline configuration used.
	Cfg core.PipelineConfig
}

// StudyConfig controls a world measurement. A saved study's header records
// it (checkpoint.go); the fields tagged json:"-" change nothing a block
// records and are left out of the campaign's identity.
type StudyConfig struct {
	// Days of probing (required, at least one).
	Days int
	// Seed for the pipeline (artifact injection, walks).
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int `json:"-"`
	// RestartInterval forwards the prober restart artifact (zero: none).
	RestartInterval time.Duration
	// MissingRate/DuplicateRate forward collection artifacts.
	MissingRate, DuplicateRate float64
	// Faults, when active, attaches a fault injector to the world's network
	// for the duration of the measurement, anchored at the campaign start
	// (DefaultStart).
	Faults faults.Config
	// Retry forwards the prober's retry policy for vantage-local failures.
	Retry trinocular.RetryConfig
	// CheckpointPath, when set, saves the study to this JSONL file: each
	// measured block is appended as it completes, and a trailer marks the
	// study complete (LoadStudy reads it back).
	CheckpointPath string `json:"-"`
	// Resume skips blocks already present in CheckpointPath.
	Resume bool `json:"-"`
	// Metrics, when non-nil, receives study-level counters (blocks measured,
	// sparse, failed, partial, quarantined) and is forwarded to the pipeline
	// and prober underneath.
	Metrics *metrics.Registry `json:"-"`
}

// DefaultCampaign is the paper's campaign of the given days: the prober
// restarts every 5 h 30 m (Fig 10's 4.4 cycles/day artifact), 3% of rounds
// go missing and 2% are duplicated. seed is the measurement seed, already
// mixed by the caller.
func DefaultCampaign(days int, seed uint64) StudyConfig {
	return StudyConfig{
		Days:            days,
		Seed:            seed,
		RestartInterval: 5*time.Hour + 30*time.Minute,
		MissingRate:     0.03,
		DuplicateRate:   0.02,
	}
}

// checkDays refuses a campaign shorter than a day, which would measure
// nothing, or a negative number of rounds.
func (c StudyConfig) checkDays() error {
	if c.Days < 1 {
		return fmt.Errorf("analysis: StudyConfig.Days %d: a study probes for at least one day", c.Days)
	}
	return nil
}

// pipelineConfig is the one mapping from a study configuration
// to the pipeline's.
func (c StudyConfig) pipelineConfig() core.PipelineConfig {
	return core.PipelineConfig{
		Start:         DefaultStart,
		Rounds:        RoundsForDays(c.Days),
		Seed:          c.Seed,
		MissingRate:   c.MissingRate,
		DuplicateRate: c.DuplicateRate,
		Prober:        trinocular.Config{RestartInterval: c.RestartInterval, Retry: c.Retry},
		Metrics:       c.Metrics,
	}
}

// lowestError returns the non-nil error of the lowest index, or nil: the
// one a campaign whose blocks fail concurrently reports, the same whatever
// order they failed in.
func lowestError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MeasureWorld runs the full §2 pipeline over every block of the world in
// parallel and returns the per-block classifications.
func MeasureWorld(w *world.World, sc StudyConfig) (*Study, error) {
	if len(w.Blocks) == 0 {
		return nil, fmt.Errorf("analysis: world has no blocks")
	}
	if err := sc.checkDays(); err != nil {
		return nil, err
	}
	if err := sc.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	pl := core.NewPipeline(w.Net, sc.pipelineConfig())
	sm := newStudyMetrics(sc.Metrics)
	study := &Study{World: w, Cfg: pl.Config(), Blocks: make([]MeasuredBlock, len(w.Blocks))}

	inj, detach := faults.Attach(w.Net, sc.Faults, study.Cfg.Start)
	defer detach()

	// Block-level checkpointing: blocks measured by a previous (killed) run
	// are loaded from the JSONL file and skipped; newly measured blocks are
	// appended as they complete.
	var cw *checkpointWriter
	var done map[int]bool
	if sc.CheckpointPath != "" {
		var err error
		cw, done, err = openCheckpoint(sc.CheckpointPath, w, sc, study)
		if err != nil {
			return nil, err
		}
	}

	todo := make([]int, 0, len(w.Blocks)) // world indexes still to measure
	ids := make([]netsim.BlockID, 0, len(w.Blocks))
	for i, b := range w.Blocks {
		if !done[i] {
			todo = append(todo, i)
			ids = append(ids, b.ID)
		}
	}
	ckptErrs := make([]error, len(ids))
	pl.RunAll(ids, sc.Workers, func(k int, run *core.BlockRun, err error) {
		i := todo[k]
		var res core.DiurnalResult
		if err == nil {
			res, err = pl.Classify(run)
		}
		mb := blockFromRun(w.Blocks[i], run, res, err)
		finishBlock(&mb, inj, study.Cfg.Rounds)
		sm.record(mb)
		study.Blocks[i] = mb
		if cw != nil {
			ckptErrs[k] = cw.Append(i, mb)
		}
	})
	if cw == nil {
		return study, nil
	}
	if err := lowestError(ckptErrs); err != nil {
		_ = cw.f.Close() // best effort: the append error is the one to surface; the file stays resumable
		return nil, err
	}
	if err := cw.Finish(sc.Metrics); err != nil {
		return nil, err
	}
	return study, nil
}

// studyMetrics caches the study-level instruments; all handles are nil (and
// every use a no-op) when the study is uninstrumented.
type studyMetrics struct {
	measured    *metrics.Counter
	sparse      *metrics.Counter
	failed      *metrics.Counter
	partial     *metrics.Counter
	quarantined *metrics.Counter
}

func newStudyMetrics(r *metrics.Registry) studyMetrics {
	return studyMetrics{
		measured:    r.Counter("analysis.blocks_measured"),
		sparse:      r.Counter("analysis.blocks_sparse"),
		failed:      r.Counter("analysis.blocks_failed"),
		partial:     r.Counter("analysis.blocks_partial"),
		quarantined: r.Counter("analysis.blocks_quarantined"),
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

// quarantineFailedFrac is the failed-round fraction above which a block is
// quarantined instead of classified.
const quarantineFailedFrac = 0.25

// Quarantined is the study's quarantine rule: a block that lost more than
// quarantineFailedFrac of its rounds has no trustworthy classification.
func Quarantined(failedRounds, rounds int) bool {
	return rounds > 0 && float64(failedRounds)/float64(rounds) > quarantineFailedFrac
}

// finishBlock attaches the injector's per-block accounting and applies the
// quarantine policy.
func finishBlock(mb *MeasuredBlock, inj *faults.Injector, rounds int) {
	if inj != nil {
		mb.Faults = inj.BlockStats(mb.Info.ID)
	}
	if mb.ErrMsg != "" || mb.Sparse {
		return
	}
	switch {
	case Quarantined(mb.FailedRounds, rounds):
		mb.Quarantined = true
	case mb.FailedRounds > 0:
		mb.Partial = true
	}
}

// blockFromRun converts one block's pipeline result (what RunAll hands its
// callback, and the classification of the run) into its study record.
func blockFromRun(info *world.BlockInfo, run *core.BlockRun, res core.DiurnalResult, err error) MeasuredBlock {
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
	mb.Class = res.Class
	mb.Phase = res.Phase
	mb.Days = run.Days
	mb.ProbesSent = run.ProbesSent
	mb.SlopePerDay = run.SlopePerDay
	// Use the exact series duration, not the integer day count: a trimmed
	// series spans ~13.995 days, and bin/floor(days) would misscale every
	// frequency by ~7%.
	if exactDays := run.Trimmed.Days(); exactDays > 0 {
		mb.StrongestCPD = float64(res.PeakBin) / exactDays
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
	hours := float64(s.Cfg.Rounds) * timeseries.DefaultRound.Hours()
	return float64(total) / float64(len(m)) / hours
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
