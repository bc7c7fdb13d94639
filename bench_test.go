// Package sleepnet's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md §4 for the experiment
// index), plus ablation benchmarks for the design choices DESIGN.md calls
// out. Benchmarks run the same code paths as cmd/experiments at reduced
// scale and report shape metrics via b.ReportMetric so the reproduced
// quantities are visible in benchmark output:
//
//	go test -bench=. -benchmem
package sleepnet

import (
	"math"
	"sync"
	"testing"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/geo"
	"sleepnet/internal/netsim"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// ---- shared fixtures ----

var (
	benchOnce sync.Once
	// benchErr records a fixture failure so every benchmark sharing the
	// fixture reports it through b.Fatal instead of the Once panicking once
	// and poisoning the rest of the run with nil fixtures.
	benchErr   error
	benchWorld *world.World
	benchStudy *analysis.Study
	benchGeo   *geo.DB
)

// benchFixture measures a 700-block world for 10 days once; the table and
// figure benchmarks then time the analysis step they name.
func benchFixture(b *testing.B) (*world.World, *analysis.Study, *geo.DB) {
	b.Helper()
	benchOnce.Do(func() {
		benchWorld, benchErr = world.Generate(world.Config{Blocks: 700, Seed: 99})
		if benchErr != nil {
			return
		}
		benchStudy, benchErr = analysis.MeasureWorld(benchWorld, analysis.StudyConfig{
			Days:            10,
			Seed:            5,
			RestartInterval: 5*time.Hour + 30*time.Minute,
		})
		if benchErr != nil {
			return
		}
		benchGeo = geo.FromWorld(benchWorld, 0.93, 3)
	})
	if benchErr != nil {
		b.Fatalf("bench fixture: %v", benchErr)
	}
	return benchWorld, benchStudy, benchGeo
}

func sampleBlockBench(b *testing.B, kind string, days int, wantDiurnal bool) {
	b.Helper()
	net := netsim.NewNetwork(1)
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 0, 1), Seed: 1}
	var hosts netsim.Hosts
	switch kind {
	case "sparse":
		for h := 0; h < 42; h++ {
			hosts[h] = netsim.Intermittent{P: 0.735, Seed: uint64(h)}
		}
	case "dense":
		for h := 0; h < 245; h++ {
			hosts[h] = netsim.Intermittent{P: 0.191, Seed: uint64(h)}
		}
	case "diurnal":
		for h := 0; h < 100; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 100; h < 256; h++ {
			hosts[h] = netsim.Diurnal{Phase: time.Hour, Duration: 10 * time.Hour, Seed: uint64(h)}
		}
	}
	blk.SetHosts(&hosts)
	net.AddBlock(blk)
	pl := core.NewPipeline(net, core.PipelineConfig{
		Start: analysis.DefaultStart, Rounds: analysis.RoundsForDays(days), Seed: 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var last *core.BlockRun
	var res core.DiurnalResult
	for i := 0; i < b.N; i++ {
		run, err := pl.RunBlock(blk.ID)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = pl.Classify(run); err != nil {
			b.Fatal(err)
		}
		last = run
	}
	b.StopTimer()
	// The strict class is the meaningful assertion: the relaxed class can
	// fire on low-frequency noise in sparse blocks (see Fig 10's ~25% 1 c/d
	// mass vs 11% strict).
	if got := res.Class == core.StrictDiurnal; got != wantDiurnal {
		b.Fatalf("%s block classified strict=%v, want %v", kind, got, wantDiurnal)
	}
	b.ReportMetric(float64(last.ProbesSent)/(float64(last.Short.Len())*660/3600), "probes/hour")
}

// ---- Figures 1-3, 6: sample blocks ----

func BenchmarkFig1SampleBlockSparse(b *testing.B)  { sampleBlockBench(b, "sparse", 14, false) }
func BenchmarkFig2SampleBlockDense(b *testing.B)   { sampleBlockBench(b, "dense", 14, false) }
func BenchmarkFig3SampleBlockDiurnal(b *testing.B) { sampleBlockBench(b, "diurnal", 14, true) }
func BenchmarkFig6LongFFT(b *testing.B)            { sampleBlockBench(b, "diurnal", 35, true) }

// ---- Figures 4-5, Table 1: estimator validation ----

func estimatorWorld(b *testing.B) (*world.World, core.PipelineConfig) {
	b.Helper()
	w, err := world.Generate(world.Config{Blocks: 80, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.PipelineConfig{Start: analysis.DefaultStart, Rounds: analysis.RoundsForDays(4), Seed: 3}
	return w, cfg
}

func BenchmarkFig4CorrelationShortTerm(b *testing.B) {
	w, cfg := estimatorWorld(b)
	b.ResetTimer()
	var r float64
	for i := 0; i < b.N; i++ {
		res, err := analysis.CompareEstimatorToTruth(w, cfg, analysis.ShortTermEstimate, 0)
		if err != nil {
			b.Fatal(err)
		}
		r = res.R
	}
	b.ReportMetric(r, "corr")
}

func BenchmarkFig5CorrelationOperational(b *testing.B) {
	w, cfg := estimatorWorld(b)
	b.ResetTimer()
	var under float64
	for i := 0; i < b.N; i++ {
		res, err := analysis.CompareEstimatorToTruth(w, cfg, analysis.OperationalEstimate, 0)
		if err != nil {
			b.Fatal(err)
		}
		under = res.UnderFrac
	}
	b.ReportMetric(under, "under-frac")
}

func BenchmarkTable1DiurnalValidation(b *testing.B) {
	w, cfg := estimatorWorld(b)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		v, err := analysis.ValidateDiurnalDetection(w, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		acc = v.Accuracy()
	}
	b.ReportMetric(acc, "accuracy")
}

// ---- Figures 7-9: controlled sweeps ----

func sweepBench(b *testing.B, run func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error)) {
	cfg := analysis.SweepConfig{Batches: 2, PerBatch: 5, Weeks: 2, Seed: 7, Workers: 0}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		pts, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mean = pts[len(pts)-1].Mean
	}
	b.ReportMetric(mean, "last-accuracy")
}

func BenchmarkFig7SweepDiurnalCount(b *testing.B) {
	sweepBench(b, func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error) {
		return analysis.SweepDiurnalCount([]int{10, 100}, cfg)
	})
}

func BenchmarkFig8SweepPhaseSpread(b *testing.B) {
	sweepBench(b, func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error) {
		return analysis.SweepPhaseSpread([]float64{0, 20}, cfg)
	})
}

func BenchmarkFig9SweepDurationNoise(b *testing.B) {
	sweepBench(b, func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error) {
		return analysis.SweepDurationSigma([]float64{0, 8}, cfg)
	})
}

// ---- Table 2: cross-site agreement ----

func BenchmarkTable2CrossSite(b *testing.B) {
	w, st, _ := benchFixture(b)
	st2, err := analysis.MeasureWorld(w, analysis.StudyConfig{Days: 10, Seed: 1234})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var dis float64
	for i := 0; i < b.N; i++ {
		cs, err := analysis.CompareSites(st, st2)
		if err != nil {
			b.Fatal(err)
		}
		dis = cs.StrongDisagree
	}
	b.ReportMetric(dis, "strong-disagree")
}

// ---- Figure 10: frequency distribution ----

func BenchmarkFig10FrequencyCDF(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var daily float64
	for i := 0; i < b.N; i++ {
		fd, err := st.FrequencyCDF()
		if err != nil {
			b.Fatal(err)
		}
		daily = fd.FracDaily
	}
	b.ReportMetric(daily, "daily-mass")
}

// ---- Figure 11: long-term trend ----

func BenchmarkFig11LongTermTrend(b *testing.B) {
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		pts, err := analysis.LongTermTrend(2, 60, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		frac = pts[0].FracDiurnal
	}
	b.ReportMetric(frac, "frac-diurnal")
}

// ---- Figures 12-13: world maps ----

func BenchmarkFig12WorldGrid(b *testing.B) {
	_, st, db := benchFixture(b)
	b.ResetTimer()
	var cells float64
	for i := 0; i < b.N; i++ {
		maps, err := st.BuildWorldMaps(db)
		if err != nil {
			b.Fatal(err)
		}
		cells = float64(maps.Counts.NonEmptyCells())
	}
	b.ReportMetric(cells, "cells")
}

func BenchmarkFig13DiurnalGrid(b *testing.B) {
	_, st, db := benchFixture(b)
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		maps, err := st.BuildWorldMaps(db)
		if err != nil {
			b.Fatal(err)
		}
		// Aggregate diurnal share of the densest cell as the shape metric.
		best := 0
		for _, c := range maps.Counts.Cells() {
			if c.Total > best {
				best = c.Total
				frac = float64(c.Marked) / float64(c.Total)
			}
		}
	}
	b.ReportMetric(frac, "densest-cell-frac")
}

// ---- Tables 3-4, Figures 14-17, Table 5 ----

func BenchmarkTable3CountryTable(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		rows := st.CountryTable(3)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		top = rows[0].FracDiurnal
	}
	b.ReportMetric(top, "top-frac")
}

func BenchmarkTable4RegionTable(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var n float64
	for i := 0; i < b.N; i++ {
		rows := st.RegionTable()
		n = float64(len(rows))
	}
	b.ReportMetric(n, "regions")
}

func BenchmarkFig14PhaseLongitude(b *testing.B) {
	_, st, db := benchFixture(b)
	b.ResetTimer()
	var r float64
	for i := 0; i < b.N; i++ {
		res, err := st.PhaseVsLongitude(db, true)
		if err != nil {
			b.Fatal(err)
		}
		r = res.R
	}
	b.ReportMetric(r, "corr")
}

func BenchmarkFig15AllocationTrend(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var slope float64
	for i := 0; i < b.N; i++ {
		res, err := st.AllocationDateTrend(3)
		if err != nil {
			b.Fatal(err)
		}
		slope = res.Fit.Slope
	}
	b.ReportMetric(slope, "pct-per-month")
}

func BenchmarkFig16GDPScatter(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var r float64
	for i := 0; i < b.N; i++ {
		res, err := st.CorrelateGDP(3)
		if err != nil {
			b.Fatal(err)
		}
		r = res.R
	}
	b.ReportMetric(r, "corr")
}

func BenchmarkTable5ANOVA(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var gdpP float64
	for i := 0; i < b.N; i++ {
		tab, err := st.ANOVATable(3)
		if err != nil {
			b.Fatal(err)
		}
		gdpP = tab.P[0][0]
	}
	b.ReportMetric(gdpP, "gdp-p")
}

func BenchmarkFig17LinkTypes(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var classified float64
	for i := 0; i < b.N; i++ {
		res, err := st.LinkTypes(11)
		if err != nil {
			b.Fatal(err)
		}
		classified = res.ClassifiedFrac
	}
	b.ReportMetric(classified, "classified-frac")
}

// ---- World measurement itself ----

func BenchmarkMeasureWorld200x7d(b *testing.B) {
	w, err := world.Generate(world.Config{Blocks: 200, Seed: 55})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.MeasureWorld(w, analysis.StudyConfig{Days: 7, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationRatioEWMA quantifies the bias of smoothing p/t directly
// (the paper's A12w variant) against the separate-EWMA estimator.
func BenchmarkAblationRatioEWMA(b *testing.B) {
	const trueA = 0.5
	net := netsim.NewNetwork(2)
	blk := &netsim.Block{ID: netsim.MakeBlockID(10, 9, 9), Seed: 2}
	var hosts netsim.Hosts
	for h := 0; h < 200; h++ {
		hosts[h] = netsim.Intermittent{P: trueA, Seed: uint64(h)}
	}
	blk.SetHosts(&hosts)
	net.AddBlock(blk)
	b.ResetTimer()
	var biasRatio, biasSep float64
	for i := 0; i < b.N; i++ {
		prober := trinocular.New(net, trinocular.Config{}, uint64(i))
		if err := prober.AddBlock(blk.ID, blk.EverActive()); err != nil {
			b.Fatal(err)
		}
		sep := core.NewEstimator(trueA)
		ratio := core.NewRatioEstimator(trueA, core.AlphaShort)
		for r := 0; r < 2000; r++ {
			now := analysis.DefaultStart.Add(time.Duration(r) * 660 * time.Second)
			obs, err := prober.ProbeRound(blk.ID, now, trueA)
			if err != nil {
				b.Fatal(err)
			}
			sep.Observe(obs.Positive, obs.Total)
			ratio.Observe(obs.Positive, obs.Total)
		}
		biasSep = sep.LongTerm() - trueA
		biasRatio = ratio.Estimate() - trueA
	}
	b.ReportMetric(biasRatio, "ratio-bias")
	b.ReportMetric(biasSep, "separate-bias")
}

// BenchmarkAblationStrictVsRelaxed compares the population sizes the two
// classification rules admit over the same measured world.
func BenchmarkAblationStrictVsRelaxed(b *testing.B) {
	_, st, _ := benchFixture(b)
	b.ResetTimer()
	var strict, either float64
	for i := 0; i < b.N; i++ {
		strict, either = st.DiurnalFraction()
	}
	b.ReportMetric(strict, "strict-frac")
	b.ReportMetric(either, "either-frac")
}

// BenchmarkAblationGain measures estimator tracking error at different
// short-term gains.
func BenchmarkAblationGain(b *testing.B) {
	for _, gain := range []float64{0.05, 0.1, 0.2} {
		b.Run(gainName(gain), func(b *testing.B) {
			net := netsim.NewNetwork(3)
			blk := &netsim.Block{ID: netsim.MakeBlockID(11, 0, 0), Seed: 3}
			var hosts netsim.Hosts
			for h := 0; h < 100; h++ {
				hosts[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: uint64(h)}
			}
			for h := 100; h < 150; h++ {
				hosts[h] = netsim.AlwaysOn{}
			}
			blk.SetHosts(&hosts)
			net.AddBlock(blk)
			b.ResetTimer()
			var rmse float64
			for i := 0; i < b.N; i++ {
				prober := trinocular.New(net, trinocular.Config{}, uint64(i))
				if err := prober.AddBlock(blk.ID, blk.EverActive()); err != nil {
					b.Fatal(err)
				}
				est := core.NewEstimatorWithGains(0.5, gain, core.AlphaLong)
				var se float64
				n := 0
				for r := 0; r < 2000; r++ {
					now := analysis.DefaultStart.Add(time.Duration(r) * 660 * time.Second)
					obs, err := prober.ProbeRound(blk.ID, now, est.Operational())
					if err != nil {
						b.Fatal(err)
					}
					est.Observe(obs.Positive, obs.Total)
					if r >= 200 {
						d := est.ShortTerm() - blk.TrueA(now)
						se += d * d
						n++
					}
				}
				rmse = math.Sqrt(se / float64(n))
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

func gainName(g float64) string {
	switch g {
	case 0.05:
		return "alpha05"
	case 0.1:
		return "alpha10"
	default:
		return "alpha20"
	}
}

// BenchmarkAblationProbePolicy compares adaptive stop-on-first-positive
// probing against fixed-k probing: equal estimate quality, very different
// probe budgets.
func BenchmarkAblationProbePolicy(b *testing.B) {
	mk := func(fixed int) (float64, float64) {
		net := netsim.NewNetwork(4)
		blk := &netsim.Block{ID: netsim.MakeBlockID(12, 0, 0), Seed: 4}
		var hosts netsim.Hosts
		for h := 0; h < 200; h++ {
			hosts[h] = netsim.Intermittent{P: 0.6, Seed: uint64(h)}
		}
		blk.SetHosts(&hosts)
		net.AddBlock(blk)
		prober := trinocular.New(net, trinocular.Config{FixedProbes: fixed}, 9)
		if err := prober.AddBlock(blk.ID, blk.EverActive()); err != nil {
			b.Fatal(err)
		}
		est := core.NewEstimator(0.6)
		for r := 0; r < 1500; r++ {
			now := analysis.DefaultStart.Add(time.Duration(r) * 660 * time.Second)
			obs, err := prober.ProbeRound(blk.ID, now, est.Operational())
			if err != nil {
				b.Fatal(err)
			}
			est.Observe(obs.Positive, obs.Total)
		}
		hours := 1500.0 * 660 / 3600
		return est.LongTerm(), float64(prober.ProbesSent()) / hours
	}
	b.ResetTimer()
	var adaptiveRate, fixedRate float64
	for i := 0; i < b.N; i++ {
		_, adaptiveRate = mk(0)
		_, fixedRate = mk(10)
	}
	b.ReportMetric(adaptiveRate, "adaptive-probes/hour")
	b.ReportMetric(fixedRate, "fixed10-probes/hour")
}

// BenchmarkAblationMidnightTrim compares diurnal phase stability with and
// without trimming the series to midnight UTC boundaries.
func BenchmarkAblationMidnightTrim(b *testing.B) {
	// Two blocks with the same schedule measured from campaigns starting at
	// different wall-clock times: with trimming, their phases agree; with
	// raw (untrimmed) series, phase depends on campaign start.
	mkRun := func(startOffset time.Duration, seed uint64) (*core.BlockRun, core.DiurnalResult) {
		net := netsim.NewNetwork(seed)
		blk := &netsim.Block{ID: netsim.MakeBlockID(13, 0, 0), Seed: seed}
		var hosts netsim.Hosts
		for h := 0; h < 50; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 50; h < 170; h++ {
			hosts[h] = netsim.Diurnal{Phase: 9 * time.Hour, Duration: 8 * time.Hour, Seed: seed + uint64(h)}
		}
		blk.SetHosts(&hosts)
		net.AddBlock(blk)
		pl := core.NewPipeline(net, core.PipelineConfig{
			Start:  analysis.DefaultStart.Add(startOffset),
			Rounds: analysis.RoundsForDays(10),
			Seed:   seed,
		})
		run, err := pl.RunBlock(blk.ID)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pl.Classify(run)
		if err != nil {
			b.Fatal(err)
		}
		return run, res
	}
	b.ResetTimer()
	var trimmedDiff, rawDiff float64
	for i := 0; i < b.N; i++ {
		a, aRes := mkRun(0, 21)
		c, cRes := mkRun(7*time.Hour+31*time.Minute, 22)
		trimmedDiff = math.Abs(angleDiff(aRes.Phase, cRes.Phase))
		// Untrimmed: classify the raw series directly.
		ra, err := core.DetectDiurnal(a.Short.Values, a.Days)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := core.DetectDiurnal(c.Short.Values, c.Days)
		if err != nil {
			b.Fatal(err)
		}
		rawDiff = math.Abs(angleDiff(ra.Phase, rc.Phase))
	}
	b.ReportMetric(trimmedDiff, "trimmed-phase-diff")
	b.ReportMetric(rawDiff, "raw-phase-diff")
}

func angleDiff(a, b float64) float64 {
	d := a - b
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// BenchmarkAblationFFTvsACF compares the paper's spectral detector against
// an autocorrelation-based alternative: per-call cost and verdict agreement
// on a mixed population of clean series.
func BenchmarkAblationFFTvsACF(b *testing.B) {
	days := 14
	n := int(float64(days) * 86400 / 660)
	mk := func(amp float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			hour := math.Mod(float64(i)*660/3600, 24)
			out[i] = 0.5 + amp*math.Cos(2*math.Pi*(hour-14)/24)
		}
		return out
	}
	population := [][]float64{mk(0), mk(0.05), mk(0.15), mk(0.3)}
	samplesPerDay := 86400.0 / 660
	b.ResetTimer()
	agree := 0
	for i := 0; i < b.N; i++ {
		agree = 0
		for _, vals := range population {
			fft, err := core.DetectDiurnal(vals, days)
			if err != nil {
				b.Fatal(err)
			}
			acf, err := core.DetectDiurnalACF(vals, samplesPerDay)
			if err != nil {
				b.Fatal(err)
			}
			if fft.Class.IsDiurnal() == acf.Diurnal {
				agree++
			}
		}
	}
	b.ReportMetric(float64(agree)/float64(len(population)), "agreement")
}
