package main

// truth.go — the truth-7d workload: the paper's section-3 validation of the
// estimators and the detector against full ground-truth enumeration.

import (
	"fmt"
	"math"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/stats"
	"sleepnet/internal/world"
)

const (
	// truthBlocks sizes the world (the generator rounds it up to about 350).
	// ISSUE 11 sized it at 1200; cut for the same reason as studyBlocks.
	truthBlocks = 200
	truthDays   = 7
	// Output bounds. The paper reports a correlation of 0.957 for Fig 4 and
	// 91% accuracy for Table 1; over seeds 1-40 this simulator's 250-block
	// worlds read 0.850-0.881 and 0.976-1.0 (one block is 0.4%), and the
	// bounds leave room around that.
	truthMinCorr     = 0.80
	truthMinAccuracy = 0.95
)

func truthWorld(seed uint64) (*world.World, error) {
	return world.Generate(world.Config{Blocks: truthBlocks, Seed: seed})
}

func truthConfig(seed uint64) core.PipelineConfig {
	return core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(truthDays),
		Seed:   seed ^ 0x7d,
	}
}

// probeEligible counts the blocks Trinocular's policy floor admits; the
// rest are excluded by design and are not failures.
func probeEligible(w *world.World) int {
	n := 0
	for _, b := range w.Blocks {
		if blk := w.Net.Block(b.ID); blk != nil && len(blk.EverActive()) >= 15 {
			n++
		}
	}
	return n
}

// truthOutput is what one repetition of the workload produced.
type truthOutput struct {
	corr *analysis.EstimatorCorrelation
	val  *analysis.DiurnalValidation
}

func truthRep(w *world.World, cfg core.PipelineConfig) (out truthOutput, compareS, validateS float64, err error) {
	t0 := nanos()
	out.corr, err = analysis.CompareEstimatorToTruth(w, cfg, analysis.ShortTermEstimate, loadWorkers)
	if err != nil {
		return out, 0, 0, err
	}
	compareS = secondsSince(t0)
	t0 = nanos()
	out.val, err = analysis.ValidateDiurnalDetection(w, cfg, loadWorkers)
	if err != nil {
		return out, 0, 0, err
	}
	return out, compareS, secondsSince(t0), nil
}

func checkTruth(out truthOutput) error {
	if err := check(out.corr.R >= truthMinCorr, "estimate-vs-truth correlation %.4f below %.2f", out.corr.R, truthMinCorr); err != nil {
		return err
	}
	return check(out.val.Accuracy() >= truthMinAccuracy, "diurnal detection accuracy %.4f below %.2f", out.val.Accuracy(), truthMinAccuracy)
}

func runTruth(e env) (*result, error) {
	res := newResult()
	var w *world.World
	if err := repeatSetup(res, "setup_s", func() (err error) {
		w, err = truthWorld(e.seed)
		return err
	}); err != nil {
		return nil, err
	}
	cfg := truthConfig(e.seed)
	eligible := probeEligible(w)

	t0 := nanos()
	first, _, _, err := truthRep(w, cfg) // warm-up, and the output to reproduce
	if err != nil {
		return nil, err
	}
	res.Phases["warmup"] = secondsSince(t0)

	var out truthOutput
	rep := func() (err error) {
		out, _, _, err = truthRep(w, cfg)
		return err
	}
	after := func() error {
		res.Attempted += 2 * eligible
		res.Failed += (eligible - out.corr.Blocks) + (eligible - out.val.Total())
		if err := checkTruth(out); err != nil {
			return err
		}
		// Pairs are pooled in worker-completion order, so R may differ in
		// its last bits between repetitions; everything countable may not.
		same := math.Abs(out.corr.R-first.corr.R) < 1e-9 && out.corr.Pairs == first.corr.Pairs && *out.val == *first.val
		return check(same, "validation output changed between repetitions")
	}
	if err := timedReps(res, e.seconds, rep, after); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d blocks (%d probe-eligible) x %d rounds", len(w.Blocks), eligible, cfg.Rounds),
		fmt.Sprintf("corr %.4f over %d pairs, accuracy %.4f, precision %.4f", out.corr.R, out.corr.Pairs, out.val.Accuracy(), out.val.Precision()))
	return res, nil
}

func traceTruth(e env) (*result, error) {
	res := newResult()
	tr := newTracer(1 << 17)

	w, err := tracedWorld(tr, res, func() (*world.World, error) { return truthWorld(e.seed) })
	if err != nil {
		return nil, err
	}

	cfg := truthConfig(e.seed)
	if _, _, _, err := truthRep(w, cfg); err != nil { // warm-up
		return nil, err
	}
	ref, compareS, validateS, err := truthRep(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := checkTruth(ref); err != nil {
		return nil, err
	}
	eligible := probeEligible(w)
	res.Attempted = 2 * eligible
	res.Failed = (eligible - ref.corr.Blocks) + (eligible - ref.val.Total())
	res.set("analysis.truth_compare_s", compareS)
	res.set("analysis.validate_s", validateS)

	dr, err := drive(tr, w.Net, blockIDs(w), enactConfig{start: cfg.Start, rounds: cfg.Rounds, seed: cfg.Seed, truth: true})
	if err != nil {
		return nil, err
	}
	// The drive must reproduce the analysis: the same confusion matrix
	// (strict on both sides, as ValidateDiurnalDetection defines it) and a
	// pooled correlation that clears the same bound.
	var got analysis.DiurnalValidation
	for _, b := range dr.blocks {
		if b.sparse {
			continue
		}
		truth, pred := b.truthClass == core.StrictDiurnal, b.class == core.StrictDiurnal
		switch {
		case truth && pred:
			got.TruePos++
		case !truth && !pred:
			got.TrueNeg++
		case truth:
			got.FalseNeg++
		default:
			got.FalsePos++
		}
	}
	if err := check(got == *ref.val, "re-enactment's confusion matrix %+v differs from ValidateDiurnalDetection's %+v", got, *ref.val); err != nil {
		return nil, err
	}
	r := stats.Pearson(dr.counts.poolTruth, dr.counts.poolEst)
	if err := check(r >= truthMinCorr, "re-enactment's correlation %.4f below %.2f", r, truthMinCorr); err != nil {
		return nil, err
	}

	dr.layerMetrics(tr, res)
	// Each of the two analysis calls probes and surveys every block; the
	// drive does so once, so it stands for either call and counts twice
	// against their combined wall.
	res.set("analysis.scaling_eff", 2*seconds(dr.tracedNS)/(loadWorkers*(compareS+validateS)))
	res.Phases["drive"] = seconds(dr.tracedNS + dr.bareNS)
	res.Notes = append(res.Notes, fmt.Sprintf("re-enactment reproduced ValidateDiurnalDetection's confusion matrix on %d blocks; pooled corr %.4f (analysis: %.4f)", got.Total(), r, ref.corr.R))
	return res, writeSpans(e.spans, "truth-7d", tr.spans)
}
