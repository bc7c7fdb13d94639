package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
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

// initialA seeds the estimators, standing in for the years-old census
// history the paper used (deliberately allowed to be wrong).
const initialA = 0.5

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

// blockRunner is one block's measurement in flight: the per-block prober,
// estimator, and accumulating record. RunBlocks drives a group of them in
// lockstep so a whole group's round crosses the netsim boundary as one
// batched wavefront.
type blockRunner struct {
	pl      *Pipeline
	id      netsim.BlockID
	prober  *trinocular.Prober
	est     *Estimator
	run     *BlockRun
	samples []timeseries.Sample
}

// newBlockRunner validates the block and assembles its measurement state.
func (pl *Pipeline) newBlockRunner(id netsim.BlockID) (*blockRunner, error) {
	blk := pl.net.Block(id)
	if blk == nil {
		return nil, fmt.Errorf("core: block %s not in network", id)
	}
	if pl.cfg.Rounds <= 0 {
		return nil, fmt.Errorf("core: pipeline needs Rounds > 0")
	}
	prober := trinocular.New(pl.net, pl.cfg.Prober, pl.cfg.Seed^uint64(id))
	if err := prober.AddBlock(id, blk.EverActive()); err != nil {
		return nil, err
	}
	return &blockRunner{
		pl:     pl,
		id:     id,
		prober: prober,
		est:    NewEstimator(initialA),
		run: &BlockRun{
			ID:          id,
			Operational: make([]float64, 0, pl.cfg.Rounds),
		},
		samples: make([]timeseries.Sample, 0, pl.cfg.Rounds),
	}, nil
}

// step folds round r's observation into the record. obs is a pointer only
// to avoid copying the ~96-byte struct once per round on the hot path; it
// is read, never mutated.
func (br *blockRunner) step(r int, obs *trinocular.RoundObs) {
	run, est := br.run, br.est
	if obs.Changed {
		run.Outages = append(run.Outages, OutageEvent{Round: r, Down: !obs.Up})
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
		s := timeseries.Sample{Round: r, Value: est.ShortTerm()}
		br.samples = append(br.samples, s, s)
	default:
		est.Observe(obs.Positive, obs.Total)
		br.samples = append(br.samples, timeseries.Sample{Round: r, Value: est.ShortTerm()})
	}
	run.Operational = append(run.Operational, est.Operational())
}

// finish runs the post-probing chain — cleaning and the midnight trim — and
// returns the completed record.
func (br *blockRunner) finish() (*BlockRun, error) {
	pl, run, id := br.pl, br.run, br.id
	run.ProbesSent = br.prober.ProbesSent()
	pl.pm.rounds.Add(int64(pl.cfg.Rounds))
	pl.pm.failedRounds.Add(int64(run.FailedRounds))

	stopClean := pl.pm.cleanSeconds.Time()
	cleaned, st, err := timeseries.Clean(br.samples, pl.cfg.Rounds)
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
func (pl *Pipeline) RunBlocks(ids []netsim.BlockID) (runs []*BlockRun, errs []error) {
	runs = make([]*BlockRun, len(ids))
	errs = make([]error, len(ids))
	runners := make([]*blockRunner, len(ids))
	live := make([]int, 0, len(ids))
	for i, id := range ids {
		br, err := pl.newBlockRunner(id)
		if err != nil {
			errs[i] = err
			continue
		}
		runners[i] = br
		live = append(live, i)
	}

	bc := trinocular.NewBatchContext()
	probers := make([]*trinocular.Prober, 0, len(live))
	bids := make([]netsim.BlockID, 0, len(live))
	aOps := make([]float64, 0, len(live))
	obs := make([]trinocular.RoundObs, len(live))

	stopProbe := pl.pm.probeSeconds.Time()
	for r := 0; r < pl.cfg.Rounds && len(live) > 0; r++ {
		now := pl.cfg.Start.Add(time.Duration(r) * timeseries.DefaultRound)
		probers, bids, aOps = probers[:0], bids[:0], aOps[:0]
		for _, i := range live {
			br := runners[i]
			probers = append(probers, br.prober)
			bids = append(bids, br.id)
			aOps = append(aOps, br.est.Operational())
		}
		if err := trinocular.ProbeRoundsBatchGroup(bc, probers, bids, aOps, now, obs[:len(live)]); err != nil {
			// Only possible for construction invariant violations (untracked
			// block, shape mismatch); every in-flight block inherits it.
			for _, i := range live {
				errs[i] = err
				runners[i] = nil
			}
			live = live[:0]
		}
		for k, i := range live {
			runners[i].step(r, &obs[k])
		}
	}
	stopProbe()
	for _, i := range live {
		runs[i], errs[i] = runners[i].finish()
	}
	return runs, errs
}

// maxGroupSize caps a lockstep group: 64 lanes amortize the netsim boundary
// crossing while keeping a worker's in-flight records small.
const maxGroupSize = 64

// groupSizeFor is how many blocks one RunAll worker measures in lockstep: as
// many as maxGroupSize, but never so many that a worker gets fewer than 16
// groups — small campaigns keep every worker busy, and a caller that holds
// on to what fn sees bounds its in-flight memory by the group.
func groupSizeFor(n, workers int) int {
	return min(max(n/(16*workers), 1), maxGroupSize)
}

// RunAll measures every block of ids on workers goroutines (GOMAXPROCS when
// workers <= 0) and is the one driver of a batch campaign: it alone decides
// how blocks are grouped and dealt. Groups are contiguous slices of ids
// measured in lockstep by RunBlocks, sized by groupSizeFor. fn is called
// exactly once per index i with the outcome of ids[i] — concurrently, from
// the worker that measured it — and the record is dropped as soon as fn
// returns. Per-block outcomes do not depend on workers or on the grouping
// (see RunBlocks).
func (pl *Pipeline) RunAll(ids []netsim.BlockID, workers int, fn func(i int, run *BlockRun, err error)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl.runAll(ids, workers, groupSizeFor(len(ids), workers), fn)
}

// runAll is RunAll with the group size a parameter, so the invariance test
// can vary it.
func (pl *Pipeline) runAll(ids []netsim.BlockID, workers, groupSize int, fn func(i int, run *BlockRun, err error)) {
	var next atomic.Int64 // start of the next undealt group
	var wg sync.WaitGroup
	for w := min(workers, (len(ids)+groupSize-1)/groupSize); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(groupSize))) - groupSize
				if lo >= len(ids) {
					return
				}
				runs, errs := pl.RunBlocks(ids[lo:min(lo+groupSize, len(ids))])
				for k := range runs {
					fn(lo+k, runs[k], errs[k])
					runs[k] = nil
				}
			}
		}()
	}
	wg.Wait()
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
