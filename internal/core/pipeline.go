package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/par"
	"sleepnet/internal/prf"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

// PipelineConfig describes one measurement campaign: when it starts, how
// many 11-minute rounds (timeseries.DefaultRound) it runs, and the
// collection-artifact rates observed in the real datasets (§2.2 reports ~5%
// of rounds missing or duplicated).
type PipelineConfig struct {
	Start  time.Time
	Rounds int
	// MissingRate and DuplicateRate inject collection artifacts: a missing
	// round records no observation (later gap-filled), a duplicated round
	// records the observation twice.
	MissingRate   float64
	DuplicateRate float64
	// Seed drives artifact injection and the prober's address walks.
	Seed uint64
	// Prober carries the Trinocular policy knobs.
	Prober trinocular.Config
	// Metrics, when non-nil, receives pipeline counters and per-phase timing
	// histograms (probe, clean, classify) and is forwarded to the prober.
	// Nil keeps the measurement path uninstrumented and clock-free.
	Metrics *metrics.Registry
}

// InitialA seeds the estimators of every campaign, the pipeline's and the
// monitor's, standing in for the years-old census history the paper used
// (deliberately allowed to be wrong).
const InitialA = 0.5

// OutageEvent is a block state transition observed by the prober.
type OutageEvent struct {
	Round int
	Down  bool // true: up->down (outage start), false: recovery
}

// BlockRun is the full measurement record for one block.
type BlockRun struct {
	ID netsim.BlockID
	// Short is the cleaned Âs series, one value per round.
	Short timeseries.Series
	// Operational is Âo per round (same grid as Short).
	Operational []float64
	// Outages lists the prober's state transitions.
	Outages []OutageEvent
	// CleanStats reports gap-filling and duplicate resolution.
	CleanStats timeseries.CleanStats
	// Trimmed is Short cut to midnight UTC boundaries, the series the
	// spectral test actually runs on.
	Trimmed timeseries.Series
	// Days is N_d for the trimmed series.
	Days int
	// SlopePerDay is the stationarity diagnostic of the trimmed series.
	SlopePerDay float64
	// ProbesSent counts probes this block cost.
	ProbesSent int64

	// FailedRounds counts rounds that produced no usable observation (all
	// probes failed locally or were eaten by rate limiting); they are
	// recorded as missing samples and gap-filled by cleaning.
	FailedRounds int
	// Retries, SendErrors and RateLimited accumulate the prober's per-round
	// fault counters. All zero on a fault-free network.
	Retries     int
	SendErrors  int
	RateLimited int
}

// pipelineMetrics caches the pipeline's instruments. All fields are nil when
// the pipeline is uninstrumented; every method on a nil instrument is a no-op.
type pipelineMetrics struct {
	blocks          *metrics.Counter
	rounds          *metrics.Counter
	failedRounds    *metrics.Counter
	probeSeconds    *metrics.Histogram
	cleanSeconds    *metrics.Histogram
	classifySeconds *metrics.Histogram
}

func newPipelineMetrics(r *metrics.Registry) pipelineMetrics {
	timing := metrics.ExpBuckets(1e-5, 10, 8)
	return pipelineMetrics{
		blocks:          r.Counter("pipeline.blocks_measured"),
		rounds:          r.Counter("pipeline.rounds"),
		failedRounds:    r.Counter("pipeline.failed_rounds"),
		probeSeconds:    r.Histogram("pipeline.probe_seconds", metrics.UnitSeconds, timing),
		cleanSeconds:    r.Histogram("pipeline.clean_seconds", metrics.UnitSeconds, timing),
		classifySeconds: r.Histogram("pipeline.classify_seconds", metrics.UnitSeconds, timing),
	}
}

// Pipeline runs the full §2 measurement chain over blocks of a simulated
// network: adaptive probing -> EWMA estimation -> cleaning -> midnight trim
// (RunBlocks, RunAll) -> spectral diurnal detection (Classify, for the
// callers that read the class).
type Pipeline struct {
	cfg PipelineConfig
	net *netsim.Network
	pm  pipelineMetrics

	// mu guards free, the lane storage RunAll's workers measure into,
	// parked between groups: at most one laneStore for each worker that
	// ran at once.
	mu   sync.Mutex
	free []*laneStore
}

// NewPipeline creates a pipeline over the network.
func NewPipeline(net *netsim.Network, cfg PipelineConfig) *Pipeline {
	if cfg.Prober.Metrics == nil {
		cfg.Prober.Metrics = cfg.Metrics
	}
	return &Pipeline{cfg: cfg, net: net, pm: newPipelineMetrics(cfg.Metrics)}
}

// Config returns the effective configuration.
func (pl *Pipeline) Config() PipelineConfig { return pl.cfg }

// blockRunner is one block's measurement in flight: the per-block prober
// and estimator, the record it fills, and the lane storage the record's
// per-round data is written to — the round grid of Âs, the Âo and outage
// arrays. RunBlocks drives a group of them in lockstep so a whole group's
// round crosses the netsim boundary as one batched wavefront.
type blockRunner struct {
	pl      *Pipeline
	id      netsim.BlockID
	prober  *trinocular.Prober
	est     *Estimator
	run     *BlockRun
	grid    timeseries.Grid
	ops     []float64
	outages []OutageEvent
}

// start validates block id and readies the runner to measure it into run,
// reusing the runner's lane storage.
func (br *blockRunner) start(pl *Pipeline, id netsim.BlockID, run *BlockRun) error {
	blk := pl.net.Block(id)
	if blk == nil {
		return fmt.Errorf("core: block %s not in network", id)
	}
	if pl.cfg.Rounds <= 0 {
		return fmt.Errorf("core: pipeline needs Rounds > 0")
	}
	prober := trinocular.New(pl.net, pl.cfg.Prober, pl.cfg.Seed^uint64(id))
	if err := prober.AddBlock(id, blk.EverActive()); err != nil {
		return err
	}
	if cap(br.ops) < pl.cfg.Rounds {
		br.ops = make([]float64, 0, pl.cfg.Rounds)
	}
	br.grid.Reset(pl.cfg.Rounds)
	*run = BlockRun{ID: id, Operational: br.ops[:0]}
	br.pl, br.id, br.prober, br.est, br.run = pl, id, prober, NewEstimator(InitialA), run
	br.outages = br.outages[:0]
	return nil
}

// step folds round r's observation into the record. obs is a pointer only
// to avoid copying the ~96-byte struct once per round on the hot path; it
// is read, never mutated.
func (br *blockRunner) step(r int, obs *trinocular.RoundObs) {
	run, est := br.run, br.est
	if obs.Changed {
		br.outages = append(br.outages, OutageEvent{Round: r, Down: !obs.Up})
	}
	run.Retries += obs.Retries
	run.SendErrors += obs.SendErrors
	run.RateLimited += obs.RateLimited
	if obs.Failed() {
		// A round with no usable observation is a gap in the record,
		// exactly like a missing collection artifact: no sample, no
		// estimator update, gap-filled by cleaning.
		run.FailedRounds++
		run.Operational = append(run.Operational, est.Operational())
		return
	}
	// Collection artifacts: some observations never make it into the
	// recorded dataset, some are recorded twice. The estimator is part
	// of the analysis (recomputed from records), so a lost record is
	// also never observed.
	switch artifactFor(&br.pl.cfg, br.id, r) {
	case artifactMissing:
	case artifactDuplicate:
		est.Observe(obs.Positive, obs.Total)
		v := est.ShortTerm()
		br.grid.Set(r, v)
		br.grid.Set(r, v)
	default:
		est.Observe(obs.Positive, obs.Total)
		br.grid.Set(r, est.ShortTerm())
	}
	run.Operational = append(run.Operational, est.Operational())
}

// finish runs the post-probing chain — cleaning and the midnight trim — and
// returns the completed record.
func (br *blockRunner) finish() (*BlockRun, error) {
	pl, run, id := br.pl, br.run, br.id
	run.ProbesSent = br.prober.ProbesSent()
	if len(br.outages) > 0 {
		run.Outages = br.outages
	}
	pl.pm.rounds.Add(int64(pl.cfg.Rounds))
	pl.pm.failedRounds.Add(int64(run.FailedRounds))

	stopClean := pl.pm.cleanSeconds.Time()
	cleaned, st, err := br.grid.Fill()
	if err != nil {
		return nil, fmt.Errorf("core: cleaning block %s: %w", id, err)
	}
	run.CleanStats = st
	run.Short = timeseries.New(pl.cfg.Start, timeseries.DefaultRound, cleaned)

	trimmed, err := timeseries.TrimToMidnightUTC(run.Short)
	if err != nil {
		return nil, fmt.Errorf("core: trimming block %s: %w", id, err)
	}
	stopClean()
	run.Trimmed = trimmed
	run.Days = timeseries.NearestDays(trimmed.Len(), trimmed.Period)
	run.SlopePerDay = trimmed.SlopePerDay()
	return run, nil
}

// Classify runs the spectral diurnal test on a measured block's trimmed
// series. It is a step of its own, not part of RunBlocks, because only some
// callers read the class: the §3 estimator comparison never does.
func (pl *Pipeline) Classify(run *BlockRun) (DiurnalResult, error) {
	stop := pl.pm.classifySeconds.Time()
	res, err := DetectDiurnal(run.Trimmed.Values, run.Days)
	if err != nil {
		return DiurnalResult{}, fmt.Errorf("core: classifying block %s: %w", run.ID, err)
	}
	stop()
	pl.pm.blocks.Inc()
	return res, nil
}

// RunBlock measures one block end to end: RunBlocks over a group of one.
// The block must be registered in the pipeline's network. Sparse blocks
// (fewer ever-active addresses than the Trinocular policy floor) return
// trinocular.ErrTooSparse.
func (pl *Pipeline) RunBlock(id netsim.BlockID) (*BlockRun, error) {
	runs, errs := pl.RunBlocks([]netsim.BlockID{id})
	return runs[0], errs[0]
}

// RunBlocks measures a group of blocks in lockstep: every round, the whole
// group's probes cross the netsim boundary as one batched wavefront
// (trinocular.ProbeRoundsBatchGroup), amortizing the per-packet routing,
// locking, and counter cost over the group. Each block keeps its own prober
// (its own walk seed) and its own record; runs[i]/errs[i] report block
// ids[i], and are the same whatever group the block is measured in — block
// state never crosses lanes, so the lockstep interleaving is unobservable.
// The records are measured into a fresh laneStore and belong to the caller.
func (pl *Pipeline) RunBlocks(ids []netsim.BlockID) (runs []*BlockRun, errs []error) {
	return pl.measureGroup(new(laneStore), ids)
}

// laneStore is the storage a lockstep group is measured in: one runner
// (with its round grid, Âo and outage arrays) and one record a lane, the
// group's BatchContext and its per-group slices. Everything grows to the
// largest group measured and is reused by the next, so a worker that
// measures group after group into one store allocates its per-round
// arrays once.
type laneStore struct {
	bc      trinocular.BatchContext
	runners []blockRunner
	recs    []BlockRun
	runs    []*BlockRun
	errs    []error
	live    []int
	probers []*trinocular.Prober
	bids    []netsim.BlockID
	aOps    []float64
	obs     []trinocular.RoundObs
}

// measureGroup measures ids in lockstep into ls and returns the group's
// outcomes, which live in ls: they are valid until ls measures again.
func (pl *Pipeline) measureGroup(ls *laneStore, ids []netsim.BlockID) (runs []*BlockRun, errs []error) {
	n := len(ids)
	if len(ls.runners) < n {
		ls.runners = append(ls.runners, make([]blockRunner, n-len(ls.runners))...)
		ls.recs = append(ls.recs, make([]BlockRun, n-len(ls.recs))...)
	}
	runs, errs = resize(ls.runs, n), resize(ls.errs, n)
	ls.runs, ls.errs = runs, errs
	live, probers, bids := ls.live[:0], ls.probers[:0], ls.bids[:0]
	for i, id := range ids {
		br := &ls.runners[i]
		if err := br.start(pl, id, &ls.recs[i]); err != nil {
			errs[i] = err
			continue
		}
		live = append(live, i)
		probers = append(probers, br.prober)
		bids = append(bids, id)
	}
	// The lanes are fixed for the group; only aOps changes between rounds.
	aOps, obs := resize(ls.aOps, len(live)), resize(ls.obs, len(live))
	ls.live, ls.probers, ls.bids, ls.aOps, ls.obs = live, probers, bids, aOps, obs

	stopProbe := pl.pm.probeSeconds.Time()
	for r := 0; r < pl.cfg.Rounds && len(live) > 0; r++ {
		now := pl.cfg.Start.Add(time.Duration(r) * timeseries.DefaultRound)
		for k, i := range live {
			aOps[k] = ls.runners[i].est.Operational()
		}
		if err := trinocular.ProbeRoundsBatchGroup(&ls.bc, probers, bids, aOps, now, obs); err != nil {
			// Only possible for construction invariant violations (untracked
			// block, shape mismatch); every in-flight block inherits it.
			for _, i := range live {
				errs[i] = err
			}
			live = live[:0]
		}
		for k, i := range live {
			ls.runners[i].step(r, &obs[k])
		}
	}
	stopProbe()
	for _, i := range live {
		runs[i], errs[i] = ls.runners[i].finish()
	}
	return runs, errs
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// maxGroupSize caps a lockstep group: 64 lanes amortize the netsim boundary
// crossing while keeping a worker's lane storage small.
const maxGroupSize = 64

// groupSizeFor is how many blocks one RunAll worker measures in lockstep: as
// many as maxGroupSize, but never so many that a worker gets fewer than 16
// groups, so small campaigns keep every worker busy.
func groupSizeFor(n, workers int) int {
	return min(max(n/(16*workers), 1), maxGroupSize)
}

// RunAll measures every block of ids on workers goroutines (GOMAXPROCS when
// workers <= 0) and is the one driver of a batch campaign: it alone decides
// how blocks are grouped and dealt. Groups are contiguous slices of ids
// measured in lockstep, as by RunBlocks, of at most groupSizeFor blocks
// and smaller towards the end (groupStarts). fn is called exactly once per
// index i with the outcome of ids[i] — concurrently, from the worker that
// measured it. The record and every slice in it are valid only until fn
// returns: a worker measures its next group into the same storage, so fn
// copies whatever it keeps. Per-block outcomes do not depend on workers or
// on the grouping (see RunBlocks).
func (pl *Pipeline) RunAll(ids []netsim.BlockID, workers int, fn func(i int, run *BlockRun, err error)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl.runAll(ids, workers, groupSizeFor(len(ids), workers), fn)
}

// minTailGroup is the smallest group groupStarts shrinks a group to.
const minTailGroup = 8

// groupStarts returns where each of runAll's groups over n blocks begins,
// followed by n. Groups are g blocks while at least 2·workers·g blocks
// remain; after that each takes ⌈remaining/(2·workers)⌉ blocks, and no
// fewer than min(minTailGroup, g). With equal groups the worker that draws
// the last one measures it alone while the others have finished: on the
// 2,500-block study at two workers that idle tail had a median of 17 ms a
// campaign, and has 2.4 ms with the last groups shrunk. A g of at most
// minTailGroup leaves every group g long.
func groupStarts(n, workers, g int) []int {
	var starts []int
	tail, floor := 2*workers*g, min(minTailGroup, g)
	for lo := 0; lo < n; {
		starts = append(starts, lo)
		size := g
		if rem := n - lo; rem < tail {
			size = max((rem+2*workers-1)/(2*workers), floor)
		}
		lo = min(lo+size, n)
	}
	return append(starts, n)
}

// runAll is RunAll with the group size a parameter, so the invariance test
// can vary it: par.For deals the groups of groupStarts one at a time. A
// group takes a laneStore from the pipeline's free list and parks it there
// again once fn has seen the group, so a worker measures every group it
// takes — and every later campaign of the pipeline — in storage already
// sized.
func (pl *Pipeline) runAll(ids []netsim.BlockID, workers, groupSize int, fn func(i int, run *BlockRun, err error)) {
	starts := groupStarts(len(ids), workers, groupSize)
	par.For(len(starts)-1, 1, workers, func(group, _ int) {
		lo, hi := starts[group], starts[group+1]
		var ls *laneStore
		pl.mu.Lock()
		if n := len(pl.free); n > 0 {
			ls, pl.free = pl.free[n-1], pl.free[:n-1]
		}
		pl.mu.Unlock()
		if ls == nil {
			ls = new(laneStore)
		}
		runs, errs := pl.measureGroup(ls, ids[lo:hi])
		for k := range runs {
			fn(lo+k, runs[k], errs[k])
		}
		pl.mu.Lock()
		pl.free = append(pl.free, ls)
		pl.mu.Unlock()
	})
}

type artifactKind int

const (
	artifactNone artifactKind = iota
	artifactMissing
	artifactDuplicate
)

// artifactFor deterministically decides whether round r of a block suffers
// a collection artifact. cfg is a pointer only to avoid copying the config
// struct once per round; it is read, never mutated.
func artifactFor(cfg *PipelineConfig, id netsim.BlockID, r int) artifactKind {
	if cfg.MissingRate <= 0 && cfg.DuplicateRate <= 0 {
		return artifactNone
	}
	u := prf.LegacyFloat(cfg.Seed^0xa57f_ac75, uint64(id), uint64(r))
	switch {
	case u < cfg.MissingRate:
		return artifactMissing
	case u < cfg.MissingRate+cfg.DuplicateRate:
		return artifactDuplicate
	default:
		return artifactNone
	}
}

// Survey measures ground truth by full enumeration: TrueA of the block at
// every round (one netsim.Block.TrueSeries) — what the paper's Internet
// surveys provide for ~2% of blocks.
func (pl *Pipeline) Survey(id netsim.BlockID) (timeseries.Series, error) {
	blk := pl.net.Block(id)
	if blk == nil {
		return timeseries.Series{}, fmt.Errorf("core: block %s not in network", id)
	}
	if pl.cfg.Rounds <= 0 {
		return timeseries.Series{}, fmt.Errorf("core: pipeline needs Rounds > 0")
	}
	vals := make([]float64, pl.cfg.Rounds)
	blk.TrueSeries(pl.cfg.Start, timeseries.DefaultRound, vals)
	return timeseries.New(pl.cfg.Start, timeseries.DefaultRound, vals), nil
}

// ClassifySeries trims a (survey or estimated) series to midnight UTC and
// runs the diurnal test — used to derive ground-truth classifications from
// full survey data (§3.2.3).
func ClassifySeries(s timeseries.Series) (DiurnalResult, int, error) {
	trimmed, err := timeseries.TrimToMidnightUTC(s)
	if err != nil {
		return DiurnalResult{}, 0, err
	}
	days := timeseries.NearestDays(trimmed.Len(), trimmed.Period)
	res, err := DetectDiurnal(trimmed.Values, days)
	if err != nil {
		return DiurnalResult{}, 0, err
	}
	return res, days, nil
}
