package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/stats"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/world"
)

// smallWorld generates a compact world for the survey-based experiments
// (full surveys evaluate every address every round, so these stay small).
func smallWorld(t testing.TB, blocks int, seed uint64) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{Blocks: blocks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func surveyCfg(days int, seed uint64) core.PipelineConfig {
	return core.PipelineConfig{
		Start:  DefaultStart,
		Rounds: RoundsForDays(days),
		Seed:   seed,
	}
}

func TestCompareEstimatorToTruthShortTerm(t *testing.T) {
	w := smallWorld(t, 120, 41)
	res, err := CompareEstimatorToTruth(w, surveyCfg(7, 5), ShortTermEstimate, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: pooled correlation 0.957. Our smaller pool should still be
	// strongly correlated.
	if res.R < 0.85 {
		t.Fatalf("pooled corr = %v, want > 0.85", res.R)
	}
	if res.Pairs < 10000 || res.Blocks < 80 {
		t.Fatalf("pool too small: %d pairs, %d blocks", res.Pairs, res.Blocks)
	}
	if len(res.Quartiles) != 10 {
		t.Fatalf("quartile groups = %d", len(res.Quartiles))
	}
	// The estimator is unbiased: medians track the bin centers for bins
	// that have data (check a central bin).
	med := res.Quartiles[7][1] // truth in [0.7, 0.8): median Âs
	if med < 0.6 || med > 0.9 {
		t.Fatalf("median Âs for A~0.75 = %v", med)
	}
	binned := 0
	for _, row := range res.Grid.Counts {
		for _, c := range row {
			binned += c
		}
	}
	if binned == 0 || binned > res.Pairs {
		t.Fatalf("grid holds %d of %d pairs", binned, res.Pairs)
	}
}

func TestCompareEstimatorToTruthOperational(t *testing.T) {
	w := smallWorld(t, 120, 43)
	res, err := CompareEstimatorToTruth(w, surveyCfg(7, 7), OperationalEstimate, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Âo under truth 94% of the time.
	if res.UnderFrac < 0.85 {
		t.Fatalf("operational under-fraction = %v, want >= 0.85", res.UnderFrac)
	}
}

func TestValidateDiurnalDetection(t *testing.T) {
	w := smallWorld(t, 150, 47)
	v, err := ValidateDiurnalDetection(w, surveyCfg(7, 9), 8)
	if err != nil {
		t.Fatal(err)
	}
	if v.Total() < 100 {
		t.Fatalf("validated only %d blocks", v.Total())
	}
	// Paper: precision 82%, accuracy 91%. Strict-vs-strict validation on
	// the simulated world runs cleaner than the real Internet, so require
	// at least the paper's levels.
	if p := v.Precision(); p < 0.7 {
		t.Fatalf("precision = %v", p)
	}
	if a := v.Accuracy(); a < 0.9 {
		t.Fatalf("accuracy = %v", a)
	}
	if v.TruePos == 0 {
		t.Fatalf("no true positives: recall is zero (%+v)", v)
	}
}

// quartileDigest hashes the bits of every quartile, row by row.
func quartileDigest(q [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range q {
		for _, v := range row {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompareEstimatorToTruthWorkerInvariant: the comparison is a function
// of the world and the configuration alone — every field, R included, is
// bit-identical whatever the number of workers.
func TestCompareEstimatorToTruthWorkerInvariant(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		w := smallWorld(t, 60, seed)
		for _, kind := range []EstimatorKind{ShortTermEstimate, OperationalEstimate} {
			var ref *EstimatorCorrelation
			for _, workers := range []int{1, 2, 5} {
				res, err := CompareEstimatorToTruth(w, surveyCfg(4, seed), kind, workers)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res
					continue
				}
				same := math.Float64bits(res.R) == math.Float64bits(ref.R) &&
					math.Float64bits(res.UnderFrac) == math.Float64bits(ref.UnderFrac) &&
					res.Pairs == ref.Pairs && res.Blocks == ref.Blocks &&
					reflect.DeepEqual(res.Grid, ref.Grid) &&
					quartileDigest(res.Quartiles) == quartileDigest(ref.Quartiles)
				if !same {
					t.Fatalf("seed %d, kind %d: %d workers give R %v (%d pairs, %d blocks, under %v), 1 worker R %v (%d pairs, %d blocks, under %v)",
						seed, kind, workers, res.R, res.Pairs, res.Blocks, res.UnderFrac, ref.R, ref.Pairs, ref.Blocks, ref.UnderFrac)
				}
			}
		}
	}
}

// TestCompareEstimatorToTruthQuartilesPinned holds the quartile boxes to
// the bits they had while every pair was pooled and sorted column by column
// (recorded at a4f436d, before the per-block partials replaced the pool):
// the same order statistics of the same multiset.
func TestCompareEstimatorToTruthQuartilesPinned(t *testing.T) {
	w := smallWorld(t, 60, 42)
	for _, c := range []struct {
		kind EstimatorKind
		want string
	}{
		{ShortTermEstimate, "86d754cd524df5c5811752529cc5179e37a76915bb69dbb746021804f186561c"},
		{OperationalEstimate, "d3536fd04f7a0a2cfd6db275db3bba093bb988eed2ff81b2c8ba9e9e47d3d10d"},
	} {
		res, err := CompareEstimatorToTruth(w, surveyCfg(4, 42), c.kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := quartileDigest(res.Quartiles); got != c.want {
			t.Errorf("kind %d: quartile bits hash to %s, want %s", c.kind, got, c.want)
		}
	}
}

// histogramCount is how many observations the named histogram holds.
func histogramCount(s metrics.Snapshot, name string) int64 {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// TestTruthValidationsClassifyOnlyWhatTheyRead: the estimator comparison
// never reads a class and runs no classification; the detection
// validation classifies each validated block's measurement exactly once.
func TestTruthValidationsClassifyOnlyWhatTheyRead(t *testing.T) {
	w := smallWorld(t, 30, 43)
	cfg := surveyCfg(3, 3)
	cfg.Metrics = metrics.New()
	if _, err := CompareEstimatorToTruth(w, cfg, ShortTermEstimate, 2); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	if n := histogramCount(snap, "pipeline.classify_seconds"); n != 0 {
		t.Fatalf("the estimator comparison classified %d blocks", n)
	}
	if n := snap.Counter("pipeline.blocks_measured"); n != 0 {
		t.Fatalf("the estimator comparison counted %d blocks classified", n)
	}

	cfg.Metrics = metrics.New()
	v, err := ValidateDiurnalDetection(w, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap = cfg.Metrics.Snapshot()
	if n := histogramCount(snap, "pipeline.classify_seconds"); n != int64(v.Total()) {
		t.Fatalf("validation of %d blocks timed %d classifications", v.Total(), n)
	}
	if n := snap.Counter("pipeline.blocks_measured"); n != int64(v.Total()) {
		t.Fatalf("validation of %d blocks counted %d classified", v.Total(), n)
	}
}

// TestQuartileColumns pins the pieces the comparison's merge is made of:
// which quartile box a truth value falls in, boxes pooled across blocks
// (NaN where empty), and co-moments that merge to the pool's correlation.
func TestQuartileColumns(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int
	}{{0, 0}, {0.0999, 0}, {0.1, 1}, {0.75, 7}, {0.9999, 9}, {1, 9}, {-0.01, -1}, {1.0001, -1}, {math.NaN(), -1}} {
		if got := quartileColumn(c.x); got != c.want {
			t.Errorf("quartileColumn(%v) = %d, want %d", c.x, got, c.want)
		}
	}

	// Two blocks after warm-up: column 2 gets {1, 2} from one and {3} from
	// the other, column 7 gets {10}; every other column is empty.
	pad := func(v ...float64) []float64 { return append(make([]float64, warmupRounds), v...) }
	truth := [][]float64{pad(0.2, 0.25, 0.7), pad(0.29)}
	est := [][]float64{pad(1, 2, 10), pad(3)}
	parts := make([]truthPartial, len(truth))
	var m comoments
	var xs, ys []float64
	for i := range parts {
		parts[i] = comparePartial(truth[i], est[i], ShortTermEstimate)
		m.merge(parts[i].m)
		xs, ys = append(xs, truth[i][warmupRounds:]...), append(ys, est[i][warmupRounds:]...)
	}
	q := columnQuartiles(parts, 3)
	if q[2][0] != 1.5 || q[2][1] != 2 || q[2][2] != 2.5 || q[7][1] != 10 {
		t.Fatalf("pooled quartiles: column 2 %v, column 7 %v", q[2], q[7])
	}
	for _, g := range []int{0, 1, 3, 4, 5, 6, 8, 9} {
		if !math.IsNaN(q[g][1]) {
			t.Fatalf("empty column %d reads %v", g, q[g])
		}
	}
	if r, want := m.pearson(), stats.Pearson(xs, ys); m.n != 4 || math.Abs(r-want) > 1e-12 {
		t.Fatalf("merged co-moments: %v pairs, r %v; the pool's r is %v", m.n, r, want)
	}
}

// failingSurvey is a pipeline whose survey of one block fails.
type failingSurvey struct {
	*core.Pipeline
	bad netsim.BlockID
}

var errSurveyLost = errors.New("survey lost")

func (f failingSurvey) Survey(id netsim.BlockID) (timeseries.Series, error) {
	if id == f.bad {
		return timeseries.Series{}, errSurveyLost
	}
	return f.Pipeline.Survey(id)
}

// A block whose survey (or survey classification) fails must fail the
// validation, not quietly shrink the confusion matrix.
func TestValidateDiurnalDetectionReportsSurveyFailure(t *testing.T) {
	w := smallWorld(t, 20, 47)
	pl := core.NewPipeline(w.Net, surveyCfg(3, 9))
	blocks := w.Blocks[:min(len(w.Blocks), 12)]
	var bad netsim.BlockID
	for _, b := range blocks {
		if _, err := pl.RunBlock(b.ID); err == nil {
			bad = b.ID // a block the validation does not skip as sparse
		}
	}
	if _, err := validateDetection(failingSurvey{pl, bad}, blocks, 2); !errors.Is(err, errSurveyLost) {
		t.Fatalf("validation with a failed survey returned %v, want %v", err, errSurveyLost)
	}
	if _, err := validateDetection(pl, blocks, 2); err != nil {
		t.Fatalf("validation over the same blocks with a working survey: %v", err)
	}
}

func TestSweepAccuracyHighAtFullPopulation(t *testing.T) {
	cfg := SweepConfig{Batches: 2, PerBatch: 6, Weeks: 2, Seed: 3, Workers: 8}
	pt, err := RunSweepPoint(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// n_d=100 of 50 stable, no noise: paper detects 100%.
	if pt.Mean < 0.9 {
		t.Fatalf("accuracy at n_d=100 = %v, want ~1", pt.Mean)
	}
	if len(pt.BatchAccuracy) != 2 {
		t.Fatalf("batches = %d", len(pt.BatchAccuracy))
	}
	if pt.Q1 > pt.Median || pt.Median > pt.Q3 {
		t.Fatalf("quartiles out of order: %v %v %v", pt.Q1, pt.Median, pt.Q3)
	}
}

func TestSweepDiurnalCountMonotoneEnds(t *testing.T) {
	cfg := SweepConfig{Batches: 2, PerBatch: 6, Weeks: 2, Seed: 5, Workers: 8}
	pts, err := SweepDiurnalCount([]int{2, 60}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 7: accuracy near zero for a couple of diurnal addresses among 50
	// stable ones, high for 60.
	if pts[0].Mean > 0.4 {
		t.Fatalf("accuracy at n_d=2 = %v, want low", pts[0].Mean)
	}
	if pts[1].Mean < 0.8 {
		t.Fatalf("accuracy at n_d=60 = %v, want high", pts[1].Mean)
	}
}

func TestSweepPhaseSpreadCollapse(t *testing.T) {
	cfg := SweepConfig{Batches: 2, PerBatch: 6, Weeks: 2, Seed: 7, Workers: 8}
	pts, err := SweepPhaseSpread([]float64{0, 22}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 8: detection collapses as phases spread across the whole day
	// (signals blur together past ~14h).
	if pts[0].Mean < 0.9 {
		t.Fatalf("accuracy at phi=0 = %v", pts[0].Mean)
	}
	if pts[1].Mean > 0.5 {
		t.Fatalf("accuracy at phi=22h = %v, want collapsed", pts[1].Mean)
	}
}

func TestSweepDurationSigmaRobust(t *testing.T) {
	cfg := SweepConfig{Batches: 2, PerBatch: 6, Weeks: 2, Seed: 9, Workers: 8}
	pts, err := SweepDurationSigma([]float64{0, 6}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 9: duration noise barely hurts below ~10h.
	if pts[0].Mean < 0.9 || pts[1].Mean < 0.75 {
		t.Fatalf("accuracy = %v / %v, want robust", pts[0].Mean, pts[1].Mean)
	}
}

func TestSweepErrors(t *testing.T) {
	cfg := SweepConfig{Batches: 1, PerBatch: 1, Weeks: 2, Stable: 200, NDiurnal: 200}
	if _, err := RunSweepPoint(0, cfg); err == nil {
		t.Fatal("overfull population should error")
	}
}

func TestCompareSitesAgree(t *testing.T) {
	_, st, _ := sharedStudy(t)
	// Second vantage point: same world, different probing seed.
	st2, err := MeasureWorld(fixtureWorld, StudyConfig{Days: 14, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := CompareSites(st, st2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2: of site-A strict blocks, ~1.2% are called non-diurnal
	// by site B. Allow a loose bound.
	if cs.StrongDisagree > 0.1 {
		t.Fatalf("strong disagreement = %v, want < 0.1", cs.StrongDisagree)
	}
	// Diagonal dominance: strict/strict and non/non are the bulk.
	if cs.M[0][0] == 0 || cs.M[2][2] == 0 {
		t.Fatalf("matrix = %+v", cs.M)
	}
	if cs.M[2][2] < cs.M[2][0] {
		t.Fatal("non-diurnal blocks must mostly agree")
	}
	// Different worlds are rejected.
	other := smallWorld(t, 60, 99)
	stOther, err := MeasureWorld(other, StudyConfig{Days: 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareSites(st, stOther); err == nil {
		t.Fatal("different worlds should error")
	}
}

func TestLongTermTrendDeclines(t *testing.T) {
	pts, err := LongTermTrend(8, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	// Surveys are 21 days apart from Dec 2009; with 8 points we span into
	// mid-2010 only, so just verify plausibility and site rotation.
	for i, p := range pts {
		if p.FracDiurnal < 0 || p.FracDiurnal > 1 || p.Blocks == 0 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	if pts[0].Site != "w" || pts[1].Site != "c" || pts[2].Site != "j" {
		t.Fatalf("site rotation wrong: %+v", pts[:3])
	}
	if _, err := LongTermTrend(0, 10, 1); err == nil {
		t.Fatal("zero surveys should error")
	}
}

func TestLongTermTrendDeclineAfter2012(t *testing.T) {
	if testing.Short() {
		t.Skip("long-span trend is slow")
	}
	// Sample two eras directly: a 2010-era survey and a 2014-era survey.
	early, err := LongTermTrend(1, 200, 33)
	if err != nil {
		t.Fatal(err)
	}
	// Build a late survey by asking for enough surveys to pass 2012; take
	// the last.
	pts, err := LongTermTrend(80, 200, 33)
	if err != nil {
		t.Fatal(err)
	}
	late := pts[len(pts)-1]
	if !late.Date.After(time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("late survey date = %v", late.Date)
	}
	if late.FracDiurnal >= early[0].FracDiurnal {
		t.Fatalf("diurnal fraction should decline: early %v late %v",
			early[0].FracDiurnal, late.FracDiurnal)
	}
}

func TestCompareSiteFrequencies(t *testing.T) {
	_, st, _ := sharedStudy(t)
	st2, err := MeasureWorld(fixtureWorld, StudyConfig{Days: 14, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareSiteFrequencies(st, st2)
	if err != nil {
		t.Fatal(err)
	}
	// Two vantage points over the same world should produce near-identical
	// frequency distributions. Assert on effect size: with ~1000 blocks the
	// KS test can reach small p-values for negligible D, so D is the
	// meaningful agreement measure.
	if res.D > 0.15 {
		t.Fatalf("frequency distributions differ across sites: D=%v p=%v", res.D, res.P)
	}
	t.Logf("cross-site frequency KS: D=%.3f p=%.3g", res.D, res.P)
	other := smallWorld(t, 60, 98)
	stOther, err := MeasureWorld(other, StudyConfig{Days: 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareSiteFrequencies(st, stOther); err == nil {
		t.Fatal("different worlds should error")
	}
}

func TestConsensusClassify(t *testing.T) {
	_, st, _ := sharedStudy(t)
	st2, err := MeasureWorld(fixtureWorld, StudyConfig{Days: 14, Seed: 555})
	if err != nil {
		t.Fatal(err)
	}
	st3, err := MeasureWorld(fixtureWorld, StudyConfig{Days: 14, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ConsensusClassify(st, st2, st3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks < 900 {
		t.Fatalf("consensus population = %d", res.Blocks)
	}
	// Consensus should flip only a small minority of verdicts.
	if frac := float64(res.FlippedFromFirst) / float64(res.Blocks); frac > 0.05 {
		t.Fatalf("consensus flipped %.1f%% of verdicts", frac*100)
	}
	// Consensus precision against designed truth should be at least as
	// good as the single-site strict FP rate.
	var fp, nonDesigned int
	for _, b := range st.Measured() {
		strict, ok := res.Strict[uint32(b.Info.ID)]
		if !ok || b.Info.DesignedDiurnal {
			continue
		}
		nonDesigned++
		if strict {
			fp++
		}
	}
	if nonDesigned == 0 {
		t.Fatal("no non-designed blocks in consensus")
	}
	if frac := float64(fp) / float64(nonDesigned); frac > 0.02 {
		t.Fatalf("consensus strict FP rate = %v", frac)
	}
	if _, err := ConsensusClassify(st); err == nil {
		t.Fatal("single study should error")
	}
	other := smallWorld(t, 40, 123)
	stOther, err := MeasureWorld(other, StudyConfig{Days: 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConsensusClassify(st, stOther); err == nil {
		t.Fatal("different worlds should error")
	}
}
