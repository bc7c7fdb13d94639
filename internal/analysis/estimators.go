package analysis

import (
	"fmt"
	"sync"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/stats"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/world"
)

// EstimatorCorrelation is the Fig 4 / Fig 5 result: pooled per-round pairs
// of true availability against an estimate, as a density grid with
// per-column quartiles and an overall correlation coefficient.
type EstimatorCorrelation struct {
	// Grid is the 2D density of (true A, estimate) pairs (x: truth).
	Grid *stats.Grid2D
	// Quartiles[g] holds {Q1, median, Q3} of the estimate for truth bin g
	// (bins of 0.1 as in the paper).
	Quartiles [][]float64
	// R is the Pearson correlation over all pooled pairs.
	R float64
	// UnderFrac is the fraction of rounds where the estimate is at or
	// below truth (the Fig 5 "94% under" check; also computed for Fig 4
	// where it is uninteresting).
	UnderFrac float64
	// Pairs is the number of pooled (truth, estimate) observations.
	Pairs int
	// Blocks is the number of blocks that contributed.
	Blocks int
}

// EstimatorKind selects which estimate Figs 4 and 5 validate.
type EstimatorKind int

const (
	// ShortTermEstimate is Âs (Fig 4).
	ShortTermEstimate EstimatorKind = iota
	// OperationalEstimate is Âo (Fig 5).
	OperationalEstimate
)

// warmupRounds excludes the estimator's initial convergence from pooled
// comparisons, as the paper excludes the "inaccurate initial value".
const warmupRounds = 200

// surveyor is what the truth validations need of a pipeline: the adaptive
// measurement of every block and the exhaustive survey of one.
// core.Pipeline in production; the tests substitute one whose survey fails.
type surveyor interface {
	RunAll(ids []netsim.BlockID, workers int, fn func(i int, run *core.BlockRun, err error))
	Survey(netsim.BlockID) (timeseries.Series, error)
}

// forEachSurveyed probes and surveys every block and hands each (run,
// survey) pair to fn, which is called concurrently. Blocks below
// Trinocular's policy floor are skipped, by design; any other failure, fn's
// included, is reported once every block has been tried — the first one
// wins.
func forEachSurveyed(pl surveyor, blocks []*world.BlockInfo, workers int, fn func(*core.BlockRun, timeseries.Series) error) error {
	ids := make([]netsim.BlockID, len(blocks))
	for i, b := range blocks {
		ids[i] = b.ID
	}
	var first firstError
	pl.RunAll(ids, workers, func(i int, run *core.BlockRun, err error) {
		if err != nil {
			if !isSparse(err) {
				first.set(err)
			}
			return
		}
		sv, err := pl.Survey(ids[i])
		if err != nil {
			first.set(err)
			return
		}
		first.set(fn(run, sv))
	})
	return first.err
}

// CompareEstimatorToTruth reproduces Figs 4 and 5: it probes every block of
// the world adaptively, surveys it exhaustively for ground truth, pools the
// per-round (A, estimate) pairs, and summarizes them. For the operational
// estimate, rounds where Âo sits at the 0.1 policy floor are excluded, as
// the paper omits non-probed very-sparse cases.
func CompareEstimatorToTruth(w *world.World, cfg core.PipelineConfig, kind EstimatorKind, workers int) (*EstimatorCorrelation, error) {
	grid, err := stats.NewGrid2D(0, 1.0001, 50, 0, 1.0001, 50)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	// Sized for every block contributing every round: grown by append, the
	// pool's abandoned halves were the peak of the whole comparison's
	// memory.
	n := len(w.Blocks) * max(0, cfg.Rounds-warmupRounds)
	xs, ys := make([]float64, 0, n), make([]float64, 0, n)
	var under, nblocks int

	err = forEachSurveyed(core.NewPipeline(w.Net, cfg), w.Blocks, workers, func(run *core.BlockRun, sv timeseries.Series) error {
		est := run.Short.Values
		if kind == OperationalEstimate {
			est = run.Operational
		}
		mu.Lock()
		defer mu.Unlock()
		nblocks++
		for r := warmupRounds; r < len(est) && r < sv.Len(); r++ {
			truth := sv.Values[r]
			e := est[r]
			if kind == OperationalEstimate && e <= core.OperationalFloor {
				continue
			}
			grid.Add(truth, e)
			xs = append(xs, truth)
			ys = append(ys, e)
			if e <= truth+1e-9 {
				under++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pairs := len(xs)
	if pairs == 0 {
		return nil, fmt.Errorf("analysis: no comparable pairs")
	}
	quart, err := stats.ColumnQuantiles(xs, ys, 0, 1, 10, 0.25, 0.5, 0.75)
	if err != nil {
		return nil, err
	}
	return &EstimatorCorrelation{
		Grid:      grid,
		Quartiles: quart,
		R:         stats.Pearson(xs, ys),
		UnderFrac: float64(under) / float64(pairs),
		Pairs:     pairs,
		Blocks:    nblocks,
	}, nil
}

// DiurnalValidation is the Table 1 confusion matrix: ground truth from
// classifying the true availability series, prediction from classifying the
// estimated series.
type DiurnalValidation struct {
	// TruePos, TrueNeg, FalseNeg, FalsePos follow Table 1's four rows
	// (d/d̂, n/n̂, d/n̂, n/d̂) where "diurnal" means strict or relaxed.
	TruePos, TrueNeg, FalseNeg, FalsePos int
}

// Total returns the number of validated blocks.
func (v DiurnalValidation) Total() int {
	return v.TruePos + v.TrueNeg + v.FalseNeg + v.FalsePos
}

// Precision is TP / (TP + FP): how rarely a predicted diurnal block is
// wrong (the paper reports 82.48%).
func (v DiurnalValidation) Precision() float64 {
	d := v.TruePos + v.FalsePos
	if d == 0 {
		return 0
	}
	return float64(v.TruePos) / float64(d)
}

// Accuracy is (TP + TN) / total (the paper reports 90.99%).
func (v DiurnalValidation) Accuracy() float64 {
	t := v.Total()
	if t == 0 {
		return 0
	}
	return float64(v.TruePos+v.TrueNeg) / float64(t)
}

// ValidateDiurnalDetection reproduces Table 1 over the world's blocks:
// classify each block twice — once from full-survey truth, once from the
// adaptive estimate — and cross-tabulate. "Diurnal" here means strictly
// diurnal on both sides: the relaxed class is deliberately loose (Fig 10
// shows 1 c/d peaks in ~25% of blocks while only 11% pass strict), and
// only the strict test yields the paper's high-precision regime.
func ValidateDiurnalDetection(w *world.World, cfg core.PipelineConfig, workers int) (*DiurnalValidation, error) {
	return validateDetection(core.NewPipeline(w.Net, cfg), w.Blocks, workers)
}

func validateDetection(pl surveyor, blocks []*world.BlockInfo, workers int) (*DiurnalValidation, error) {
	var mu sync.Mutex
	var v DiurnalValidation
	err := forEachSurveyed(pl, blocks, workers, func(run *core.BlockRun, sv timeseries.Series) error {
		truthRes, _, err := core.ClassifySeries(sv)
		if err != nil {
			return fmt.Errorf("analysis: classifying the survey of %s: %w", run.ID, err)
		}
		truth := truthRes.Class == core.StrictDiurnal
		pred := run.Result.Class == core.StrictDiurnal
		mu.Lock()
		defer mu.Unlock()
		switch {
		case truth && pred:
			v.TruePos++
		case !truth && !pred:
			v.TrueNeg++
		case truth && !pred:
			v.FalseNeg++
		default:
			v.FalsePos++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if v.Total() == 0 {
		return nil, fmt.Errorf("analysis: no blocks validated")
	}
	return &v, nil
}
