package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/dsp"
	"sleepnet/internal/netsim"
	"sleepnet/internal/report"
	"sleepnet/internal/stats"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// registry is every artifact, in EXPERIMENTS.md's order. A claim's band is
// the range in which this reproduction counts the paper's result as
// reproduced; where the paper gives a shape rather than a number, the band
// encodes the shape.
var registry = []artifact{
	{"fig1", paperKind, "Sparse high-A block (42 addrs, A≈0.735) with outage", fig1},
	{"fig2", paperKind, "Dense low-A block (245 addrs, A≈0.191)", fig2},
	{"fig3", paperKind, "Diurnal block, 14 daily bumps, FFT peak at k = N_d", fig3},
	{"fig4", paperKind, "corr(A, Âs) pooled over survey blocks", fig4},
	{"fig5", paperKind, "Âo vs A", fig5},
	{"fig6", paperKind, "Long FFT of the diurnal block: fundamental at k = N_d", fig6},
	{"table1", paperKind, "Diurnal detection validated against survey truth", table1},
	{"fig7", paperKind, "Accuracy vs n_d", fig7},
	{"fig8", paperKind, "Accuracy vs phase spread Φ, cliff at ~14 h", fig8},
	{"fig9", paperKind, "Accuracy vs duration noise σd", fig9},
	{"table2", paperKind, "Two-site agreement", table2},
	{"fig10", paperKind, "CDF of the strongest frequency", fig10},
	{"fig11", paperKind, "Diurnal fraction across long-term surveys", fig11},
	{"fig12", paperKind, "World map of observable blocks", fig12},
	{"fig13", paperKind, "World map of % diurnal: dark N. America, bright Asia", fig13},
	{"table3", paperKind, "Countries by diurnal fraction", table3},
	{"table4", paperKind, "Regions by diurnal fraction", table4},
	{"fig14", paperKind, "Phase vs longitude", fig14},
	{"fig15", paperKind, "% diurnal by /8 allocation month", fig15},
	{"fig16", paperKind, "Diurnal fraction vs GDP", fig16},
	{"table5", paperKind, "ANOVA of factors vs diurnal fraction", table5},
	{"fig17", paperKind, "Diurnal fraction per link keyword", fig17},

	{"outages", extensionKind, "§7 outage–economics correlation (diurnal blocks excluded)", outages},
	{"census", extensionKind, "§5.6 active-address census", census},
	{"usc", extensionKind, "§3.2.4 campus validation", usc},
	{"faults", extensionKind, "classification vs injected measurement-path faults", faultsweep},

	{"ratioewma", ablationKind, "EWMA of p/t directly (the paper's A12w) vs separate EWMAs, at A = 0.5", ratioEWMA},
	{"strictrelaxed", ablationKind, "population each diurnal rule admits", strictRelaxed},
	{"gain", ablationKind, "short-term gain αs vs tracking error on a diurnal block", gainSweep},
	{"probepolicy", ablationKind, "stop-on-first-positive vs fixed-10 probing", probePolicy},
	{"midnighttrim", ablationKind, "phase disagreement across campaign start offsets", midnightTrim},
	{"fftacf", ablationKind, "spectral vs autocorrelation detector on clean series", fftVsACF},
}

// World is the shared world of the world-scale artifacts.
func (e *env) World() *world.World {
	if e.world == nil {
		e.world = must(world.Generate(world.Config{Blocks: e.blocks, Seed: e.seed}))
		e.printf("# world: %d blocks, seed %d\n", len(e.world.Blocks), e.seed)
	}
	return e.world
}

// Study is the shared study of the world, measured once.
func (e *env) Study() *analysis.Study {
	if e.study == nil {
		w := e.World()
		//lint:allow nowallclock: CLI-only elapsed display on a "#" comment line; never parsed or persisted
		start := time.Now()
		cfg := analysis.DefaultCampaign(e.days, e.seed^0xabcd)
		cfg.Metrics = e.metrics
		st := must(analysis.MeasureWorld(w, cfg))
		e.study = st
		strict, either := st.DiurnalFraction()
		e.printf("# study: %d blocks measured in %v; %s strict, %s either diurnal; %.1f probes/block/hour\n",
			//lint:allow nowallclock: CLI-only elapsed display on a "#" comment line; never parsed or persisted
			len(st.Measured()), time.Since(start).Round(time.Millisecond),
			report.Pct(strict), report.Pct(either), st.ProbeBudget())
	}
	return e.study
}

// --- sample blocks (Figs 1-3, 6) ---

// sampleBlock builds one of the paper's three archetype blocks and runs
// the estimator pipeline, its classification and the ground-truth survey on
// it.
func sampleBlock(seed uint64, kind string, days int) (*core.BlockRun, core.DiurnalResult, []float64) {
	net := netsim.NewNetwork(seed)
	blk := &netsim.Block{Seed: seed}
	var hosts netsim.Hosts
	switch kind {
	case "sparse":
		blk.ID = netsim.MakeBlockID(1, 9, 21)
		for h := 0; h < 42; h++ {
			hosts[h] = netsim.Intermittent{P: 0.735, Seed: uint64(h) + 5}
		}
		oStart := analysis.DefaultStart.Add(957 * timeseries.DefaultRound)
		blk.Outages = []netsim.Interval{{Start: oStart, End: oStart.Add(6 * time.Hour)}}
	case "dense":
		blk.ID = netsim.MakeBlockID(93, 208, 233)
		for h := 0; h < 245; h++ {
			hosts[h] = netsim.Intermittent{P: 0.191, Seed: uint64(h) + 7}
		}
	case "diurnal":
		blk.ID = netsim.MakeBlockID(27, 186, 9)
		for h := 0; h < 100; h++ {
			hosts[h] = netsim.AlwaysOn{}
		}
		for h := 100; h < 256; h++ {
			hosts[h] = netsim.Diurnal{
				Phase: 1 * time.Hour, Duration: 10 * time.Hour,
				StartSigma: 30 * time.Minute, Seed: uint64(h),
			}
		}
	}
	blk.SetHosts(&hosts)
	net.AddBlock(blk)
	pl := core.NewPipeline(net, core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(days),
		Seed:   seed,
	})
	run := must(pl.RunBlock(blk.ID))
	return run, must(pl.Classify(run)), must(pl.Survey(blk.ID)).Values
}

func (e *env) printSample(run *core.BlockRun, res core.DiurnalResult, truth []float64, fftToo bool) {
	e.printf("block %s: %d rounds, %d days trimmed, class=%s\n",
		run.ID, run.Short.Len(), run.Days, res.Class)
	e.printf("probes sent: %d (%.1f per hour)\n", run.ProbesSent,
		float64(run.ProbesSent)/(float64(run.Short.Len())*timeseries.DefaultRound.Seconds()/3600))
	e.printf("\ntrue A (survey):\n%s", report.Series(truth, 100, 8))
	e.printf("estimated Âs:\n%s", report.Series(run.Short.Values, 100, 8))
	e.printf("operational Âo:\n%s", report.Series(run.Operational, 100, 8))
	for _, ev := range run.Outages {
		state := "recovery"
		if ev.Down {
			state = "OUTAGE"
		}
		e.printf("event: round %d %s\n", ev.Round, state)
	}
	if fftToo {
		e.printf("\nFFT amplitude (bins 1..%d; diurnal bin N_d = %d):\n", 4*run.Days, run.Days)
		e.printSpectrum(run)
		e.printf("diurnal amp %.2f, next strongest non-harmonic %.2f, peak bin %d\n",
			res.DiurnalAmp, res.NextAmp, res.PeakBin)
	}
}

// printSpectrum charts amplitude bins 1..4·days of the spectrum the detector
// classified run by: its midnight-trimmed series, detrended as
// core.DetectDiurnal detrends it.
func (e *env) printSpectrum(run *core.BlockRun) {
	vals := run.Trimmed.Values
	amps := dsp.NewSpectrumScratch(dsp.DetrendLinearInto(make([]float64, len(vals)), vals), nil).Amp
	hi := min(4*run.Days, len(amps)-1)
	e.printf("%s", report.Series(amps[1:hi+1], 100, 8))
}

// meanShortTerm is a claim on a sample block's mean Âs, the level its trace
// tracks.
func meanShortTerm(run *core.BlockRun, paper string, lo, hi float64) claim {
	return num("mean Âs", paper, "%.3f", lo, hi, stats.Mean(run.Short.Values))
}

func fig1(e *env) []claim {
	e.printf("Fig 1: sparse but high-availability block (A ~ 0.735, 42 addrs), with outage\n")
	run, res, truth := sampleBlock(e.seed, "sparse", 14)
	e.printSample(run, res, truth, true)
	onset := -1.0
	for _, ev := range run.Outages {
		if ev.Down {
			onset = float64(ev.Round)
			break
		}
	}
	return []claim{
		meanShortTerm(run, "≈ 0.735", 0.65, 0.82),
		num("outage onset round", "957", "%.0f", 955, 965, onset),
	}
}

func fig2(e *env) []claim {
	e.printf("Fig 2: dense but low-availability block (A ~ 0.191, 245 addrs)\n")
	run, res, truth := sampleBlock(e.seed, "dense", 14)
	e.printSample(run, res, truth, false)
	return []claim{meanShortTerm(run, "≈ 0.191", 0.15, 0.25)}
}

// peakClaims are the two numbers of a diurnal spectrum: where the peak is,
// as a multiple of N_d, and how far it stands above the next non-harmonic.
func peakClaims(res core.DiurnalResult, bin, days int) []claim {
	return []claim{
		gated(num("peak bin / N_d", "1", "%.2f", 1, 1, float64(bin)/float64(days))),
		gated(num("diurnal / next amp", "", "%.1f", 3, 1e3, res.DiurnalAmp/res.NextAmp)),
	}
}

func fig3(e *env) []claim {
	e.printf("Fig 3: diurnal block (N_d = 14); FFT shows strong diurnal peak\n")
	run, res, truth := sampleBlock(e.seed, "diurnal", 14)
	e.printSample(run, res, truth, true)
	return peakClaims(res, res.PeakBin, run.Days)
}

func fig6(e *env) []claim {
	days := 35
	if e.quick {
		days = 21
	}
	e.printf("Fig 6: same diurnal block over %d days; diurnal peak at k = %d\n", days, days)
	run, res, _ := sampleBlock(e.seed, "diurnal", days)
	e.printf("class=%s fundamental bin=%d (N_d=%d) amp=%.2f next=%.2f\n",
		res.Class, res.FundamentalBin, run.Days,
		res.DiurnalAmp, res.NextAmp)
	e.printSpectrum(run)
	return peakClaims(res, res.FundamentalBin, run.Days)
}

// --- estimator validation (Figs 4, 5; Table 1) ---

func (e *env) surveyWorld() (*world.World, core.PipelineConfig) {
	n := 250
	if e.quick {
		n = 120
	}
	w := must(world.Generate(world.Config{Blocks: n, Seed: e.seed ^ 0xf15}))
	return w, core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(7),
		Seed:   e.seed,
	}
}

func fig4(e *env) []claim {
	e.printf("Fig 4: correlation of true A and short-term estimate Âs\n")
	w, cfg := e.surveyWorld()
	res := must(analysis.CompareEstimatorToTruth(w, cfg, analysis.ShortTermEstimate, 0))
	e.printf("pooled pairs: %d over %d blocks\n", res.Pairs, res.Blocks)
	e.printf("correlation coefficient: %.5f (paper: 0.95685)\n", res.R)
	e.printf("quartiles of Âs binned by 0.1 of true A:\n")
	rows := make([][]string, 0, 10)
	for g, q := range res.Quartiles {
		rows = append(rows, []string{
			fmt.Sprintf("[%.1f,%.1f)", float64(g)/10, float64(g+1)/10),
			report.F(q[0]), report.F(q[1]), report.F(q[2]),
		})
	}
	e.printf("%s", report.Table([]string{"true A", "Q1", "median", "Q3"}, rows))
	return []claim{num("r", "0.957", "%.3f", 0.9, 1, res.R)}
}

func fig5(e *env) []claim {
	e.printf("Fig 5: correlation of true A and operational estimate Âo\n")
	w, cfg := e.surveyWorld()
	res := must(analysis.CompareEstimatorToTruth(w, cfg, analysis.OperationalEstimate, 0))
	e.printf("pooled pairs: %d over %d blocks\n", res.Pairs, res.Blocks)
	e.printf("Âo at or under true A: %s of rounds (paper: 94%%)\n", report.Pct(res.UnderFrac))
	e.printf("correlation coefficient: %.5f\n", res.R)
	return []claim{gated(pct("Âo ≤ A", "94%", 0.9, 1, res.UnderFrac))}
}

func table1(e *env) []claim {
	e.printf("Table 1: diurnal detection validated against full-survey truth\n")
	w, cfg := e.surveyWorld()
	v := must(analysis.ValidateDiurnalDetection(w, cfg, 0))
	share := func(n int) float64 { return float64(n) / float64(v.Total()) }
	rows := [][]string{
		{"d (truth)", "d̂ (pred)", fmt.Sprint(v.TruePos), report.Pct(share(v.TruePos))},
		{"n", "n̂", fmt.Sprint(v.TrueNeg), report.Pct(share(v.TrueNeg))},
		{"d", "n̂", fmt.Sprint(v.FalseNeg), report.Pct(share(v.FalseNeg))},
		{"n", "d̂", fmt.Sprint(v.FalsePos), report.Pct(share(v.FalsePos))},
	}
	e.printf("%s", report.Table([]string{"truth", "predicted", "blocks", "share"}, rows))
	e.printf("precision: %s (paper: 82.48%%)   accuracy: %s (paper: 90.99%%)\n",
		report.Pct(v.Precision()), report.Pct(v.Accuracy()))
	return []claim{
		gated(pct("precision", "82.5%", 0.75, 1, v.Precision())),
		gated(pct("accuracy", "91.0%", 0.85, 1, v.Accuracy())),
		pct("truly diurnal", "~10%", 0.05, 0.25, share(v.TruePos+v.FalseNeg)),
	}
}

// --- controlled sweeps (Figs 7-9) ---

func (e *env) sweep(xlabel string, run func(analysis.SweepConfig) ([]analysis.SweepPoint, error)) []analysis.SweepPoint {
	cfg := analysis.SweepConfig{Seed: e.seed}
	if e.quick {
		cfg.Batches, cfg.PerBatch, cfg.Weeks = 3, 10, 2
	} else {
		cfg.Batches, cfg.PerBatch, cfg.Weeks = 10, 30, 4
	}
	pts := must(run(cfg))
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			report.F(p.X), report.Pct(p.Mean), report.Pct(p.Q1), report.Pct(p.Median), report.Pct(p.Q3),
		})
	}
	e.printf("%s", report.Table([]string{xlabel, "accuracy", "Q1", "median", "Q3"}, rows))
	return pts
}

// accuracyAt is a claim on a sweep's mean accuracy at x, one of the points
// both the full and the quick sweep run.
func accuracyAt(pts []analysis.SweepPoint, x float64, name, paper string, lo, hi float64) claim {
	got := math.NaN()
	for _, p := range pts {
		if math.Abs(p.X-x) < 1e-9 {
			got = p.Mean
		}
	}
	return pct(name, paper, lo, hi, got)
}

func fig7(e *env) []claim {
	e.printf("Fig 7: detection accuracy vs number of diurnal addresses (Φ=σs=σd=0)\n")
	counts := []int{1, 2, 5, 10, 20, 40, 60, 80, 100}
	if e.quick {
		counts = []int{2, 10, 40, 100}
	}
	pts := e.sweep("n_d", func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error) {
		return analysis.SweepDiurnalCount(counts, cfg)
	})
	return []claim{
		gated(accuracyAt(pts, 2, "n_d = 2", "low", 0, 0.3)),
		gated(accuracyAt(pts, 40, "n_d = 40", "> 85%", 0.85, 1)),
	}
}

func fig8(e *env) []claim {
	e.printf("Fig 8: detection accuracy vs maximum phase spread Φ (n_d=100)\n")
	hours := []float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}
	if e.quick {
		hours = []float64{0, 8, 14, 20}
	}
	pts := e.sweep("Φ (hours)", func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error) {
		return analysis.SweepPhaseSpread(hours, cfg)
	})
	return []claim{
		gated(accuracyAt(pts, 8, "Φ = 8 h", "high", 0.9, 1)),
		gated(accuracyAt(pts, 20, "Φ = 20 h", "past the cliff", 0, 0.85)),
	}
}

func fig9(e *env) []claim {
	e.printf("Fig 9: detection accuracy vs uptime-duration noise σd (n_d=100)\n")
	hours := []float64{0, 2, 4, 6, 8, 10, 14, 18, 24}
	if e.quick {
		hours = []float64{0, 6, 12, 24}
	}
	pts := e.sweep("σd (hours)", func(cfg analysis.SweepConfig) ([]analysis.SweepPoint, error) {
		return analysis.SweepDurationSigma(hours, cfg)
	})
	return []claim{
		gated(accuracyAt(pts, 6, "σd = 6 h", "high", 0.9, 1)),
		gated(accuracyAt(pts, 24, "σd = 24 h", "slight decline", 0.6, 1)),
	}
}

// --- world-scale results ---

func table2(e *env) []claim {
	e.printf("Table 2: agreement between two vantage points over the same world\n")
	a := e.Study()
	// Site B runs site A's campaign, restarts and collection artifacts
	// included, from its own seed: only the vantage point differs.
	cfgB := analysis.DefaultCampaign(e.days, e.seed^0x7e1e)
	cfgB.Metrics = e.metrics
	b := must(analysis.MeasureWorld(e.World(), cfgB))
	cs := must(analysis.CompareSites(a, b))
	names := []string{"d (strict)", "e (either)", "N (non)"}
	rows := make([][]string, 3)
	for i := range rows {
		rows[i] = []string{names[i],
			fmt.Sprint(cs.M[i][0]), fmt.Sprint(cs.M[i][1]), fmt.Sprint(cs.M[i][2])}
	}
	e.printf("%s", report.Table([]string{"site A \\ site B", "d", "e", "N"}, rows))
	e.printf("strong disagreement (A strict, B non): %s (paper: ~1.2%%)\n",
		report.Pct(cs.StrongDisagree))
	claims := []claim{pct("strong disagreement", "~1.2%", 0, 0.05, cs.StrongDisagree)}
	if ks, err := analysis.CompareSiteFrequencies(a, b); err == nil {
		e.printf("frequency-distribution KS: D = %.3f (small D = sites agree distributionally)\n", ks.D)
		claims = append(claims, num("KS D", "", "%.3f", 0, 0.1, ks.D))
	}
	return claims
}

func fig10(e *env) []claim {
	e.printf("Fig 10: CDF of the strongest frequency per block\n")
	fd := must(e.Study().FrequencyCDF())
	e.printf("mass near 1 cycle/day: %s (paper: ~25%%)\n", report.Pct(fd.FracDaily))
	e.printf("mass near 4.4 cycles/day (prober restart artifact): %s (paper: ~3%%)\n",
		report.Pct(fd.FracRestartArtifact))
	e.printf("CDF at selected frequencies (cycles/day):\n")
	rows := [][]string{}
	for _, f := range []float64{0.5, 0.9, 1.1, 2, 4, 4.6, 8, 16} {
		rows = append(rows, []string{report.F(f), report.Pct(fd.CDF.At(f))})
	}
	e.printf("%s", report.Table([]string{"cycles/day", "CDF"}, rows))
	return []claim{
		pct("mass at 1 c/d", "~25%", 0.15, 0.35, fd.FracDaily),
		pct("mass at 4.4 c/d", "~3%", 0.02, 0.06, fd.FracRestartArtifact),
	}
}

func fig11(e *env) []claim {
	n, per := 12, 250
	if e.quick {
		n, per = 6, 120
	}
	e.printf("Fig 11: diurnal fraction across %d long-term surveys\n", n)
	pts := must(analysis.LongTermTrend(n, per, e.seed))
	rows := make([][]string, 0, len(pts))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		rows = append(rows, []string{
			p.Date.Format("2006-01"), p.Site, fmt.Sprint(p.Blocks), report.Pct(p.FracDiurnal),
		})
		lo, hi = math.Min(lo, p.FracDiurnal), math.Max(hi, p.FracDiurnal)
	}
	e.printf("%s", report.Table([]string{"date", "site", "blocks", "frac diurnal"}, rows))
	return []claim{
		pct("lowest survey", "~10%", 0.05, 0.15, lo),
		pct("highest survey", "~17%", 0.12, 0.25, hi),
	}
}

func fig12(e *env) []claim {
	e.printf("Fig 12: observable blocks per 2°x2° cell (log grayscale)\n")
	maps := must(e.Study().BuildWorldMaps(report.GeoDB(e.World())))
	e.printf("geolocated blocks: %d; non-empty cells: %d; max cell: %d\n",
		maps.Geolocated, maps.Counts.NonEmptyCells(), maps.Counts.MaxCount())
	e.printWorld(maps, false)
	e.writeWorldPNG(maps, false, "fig12.png")
	return []claim{pct("geolocated", "", 0.85, 1, float64(maps.Geolocated)/float64(len(e.study.Measured())))}
}

func fig13(e *env) []claim {
	e.printf("Fig 13: percent of observable blocks that are diurnal per cell\n")
	maps := must(e.Study().BuildWorldMaps(report.GeoDB(e.World())))
	e.printWorld(maps, true)
	e.writeWorldPNG(maps, true, "fig13.png")
	// The map's two ends: North America north of 15°N, and Asia east of 60°E.
	var na, asia [2]int // marked, total
	for _, c := range maps.Counts.Cells() {
		switch {
		case c.LonCenter < -50 && c.LatCenter > 15:
			na[0], na[1] = na[0]+c.Marked, na[1]+c.Total
		case c.LonCenter > 60:
			asia[0], asia[1] = asia[0]+c.Marked, asia[1]+c.Total
		}
	}
	return []claim{
		gated(pct("N. America", "dark", 0, 0.05, float64(na[0])/float64(na[1]))),
		gated(pct("Asia", "bright", 0.1, 1, float64(asia[0])/float64(asia[1]))),
	}
}

// writeWorldPNG renders the 2° grid to a PNG when a PNG directory was given.
func (e *env) writeWorldPNG(maps *analysis.WorldMaps, fractions bool, name string) {
	if e.pngDir == "" {
		return
	}
	nx, ny := maps.Counts.Dims()
	counts := make([][]int, ny)
	marked := make([][]int, ny)
	for y := range counts {
		counts[y] = make([]int, nx)
		marked[y] = make([]int, nx)
	}
	for _, cell := range maps.Counts.Cells() {
		x := int((cell.LonCenter + 180) / 2)
		y := ny - 1 - int((cell.LatCenter+90)/2) // row 0 = north
		if x < 0 || x >= nx || y < 0 || y >= ny {
			continue
		}
		counts[y][x] = cell.Total
		marked[y][x] = cell.Marked
	}
	path := e.pngDir + "/" + name
	f := must(os.Create(path))
	var err error
	if fractions {
		err = report.FractionPNG(f, fractionGrid(counts, marked), 6)
	} else {
		err = report.HeatPNG(f, counts, 6)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	check(err)
	e.printf("wrote %s\n", path)
}

// fractionGrid is marked/counts cell by cell, NaN where a cell is empty.
func fractionGrid(counts, marked [][]int) [][]float64 {
	fr := make([][]float64, len(counts))
	for y := range fr {
		fr[y] = make([]float64, len(counts[y]))
		for x := range fr[y] {
			if counts[y][x] == 0 {
				fr[y][x] = math.NaN()
			} else {
				fr[y][x] = float64(marked[y][x]) / float64(counts[y][x])
			}
		}
	}
	return fr
}

// printWorld downsamples the 2° grid to a terminal-sized map between 60S
// and 72N.
func (e *env) printWorld(maps *analysis.WorldMaps, fractions bool) {
	const cols, rows = 120, 33
	counts := make([][]int, rows)
	marked := make([][]int, rows)
	for r := range counts {
		counts[r] = make([]int, cols)
		marked[r] = make([]int, cols)
	}
	for _, cell := range maps.Counts.Cells() {
		x := int((cell.LonCenter + 180) / 360 * cols)
		y := int((72 - cell.LatCenter) / 132 * rows)
		if x < 0 || x >= cols || y < 0 || y >= rows {
			continue
		}
		counts[y][x] += cell.Total
		marked[y][x] += cell.Marked
	}
	if fractions {
		e.printf("%s", report.FractionMap(fractionGrid(counts, marked)))
	} else {
		e.printf("%s", report.Heatmap(counts))
	}
}

func table3(e *env) []claim {
	text, rows := report.Table3(e.Study())
	e.printf("%s", text)
	frac := map[string]float64{}
	for _, r := range rows {
		frac[r.Code] = r.FracDiurnal
	}
	return []claim{
		num("CN", "0.498", "%.3f", 0.35, 0.65, frac["CN"]),
		num("US", "0.002", "%.3f", 0, 0.02, frac["US"]),
	}
}

func table4(e *env) []claim {
	text, rows := report.Table4(e.Study())
	e.printf("%s", text)
	frac := map[string]float64{}
	for _, r := range rows {
		frac[r.Region] = r.FracDiurnal
	}
	return []claim{
		num("N. America", "0.002", "%.3f", 0, 0.02, frac["Northern America"]),
		num("E. Asia", "0.28–0.40", "%.3f", 0.2, 0.5, frac["Eastern Asia"]),
	}
}

func fig14(e *env) []claim {
	text, strict, relaxed, err := report.Fig14(e.Study())
	check(err)
	e.printf("%s", text)
	return []claim{
		num("r strict", "0.835", "%.3f", 0.6, 1, strict.R),
		num("r either", "0.763", "%.3f", 0.6, 1, relaxed.R),
	}
}

func fig15(e *env) []claim {
	e.printf("Fig 15: percent diurnal by /8 allocation month\n")
	st := e.Study()
	res := must(st.AllocationDateTrend(report.CountryFloor(st)))
	rows := [][]string{}
	step := len(res.Months)/12 + 1
	for i := 0; i < len(res.Months); i += step {
		rows = append(rows, []string{
			res.Months[i].Format("2006-01"), fmt.Sprint(res.Blocks[i]), report.Pct(res.Frac[i]),
		})
	}
	e.printf("%s", report.Table([]string{"alloc month", "blocks", "frac diurnal"}, rows))
	e.printf("linear fit: slope %+.3f%%/month (paper: +0.08%%), r = %.3f (paper: 0.609)\n",
		res.Fit.Slope, res.Fit.R)
	return []claim{
		num("slope %/month", "+0.08", "%+.3f", 0.02, 0.2, res.Fit.Slope),
		num("r", "0.609", "%.3f", 0.3, 1, res.Fit.R),
	}
}

func fig16(e *env) []claim {
	text, res, err := report.Fig16(e.Study())
	check(err)
	e.printf("%s", text)
	return []claim{gated(num("r", "−0.526", "%.3f", -0.8, -0.3, res.R))}
}

func table5(e *env) []claim {
	e.printf("Table 5: ANOVA p-values — factors vs diurnal fraction\n")
	st := e.Study()
	tab := must(st.ANOVATable(report.CountryFloor(st)))
	// Benjamini-Hochberg over the 15 distinct tests (diagonal + upper
	// triangle) controls the table's false discovery rate.
	var pvals []float64
	var pos [][2]int
	for i := range tab.Names {
		for j := i; j < len(tab.Names); j++ {
			pvals = append(pvals, tab.P[i][j])
			pos = append(pos, [2]int{i, j})
		}
	}
	mask := stats.BenjaminiHochberg(pvals, 0.05)
	bh := make(map[[2]int]bool)
	significant := 0
	for k, ok := range mask {
		bh[pos[k]] = ok
		bh[[2]int{pos[k][1], pos[k][0]}] = ok
		if pvals[k] < 0.05 {
			significant++
		}
	}
	headers := append([]string{""}, tab.Names...)
	rows := make([][]string, len(tab.Names))
	for i := range tab.Names {
		row := []string{tab.Names[i]}
		for j := range tab.Names {
			cell := report.F(tab.P[i][j])
			if tab.P[i][j] < 0.05 {
				cell += " *"
			}
			if bh[[2]int{i, j}] {
				cell += "+"
			}
			row = append(row, cell)
		}
		rows[i] = row
	}
	e.printf("%s", report.Table(headers, rows))
	e.printf("(* = raw p < 0.05, + = survives Benjamini-Hochberg FDR 0.05 over all 15 tests;\n")
	e.printf(" paper finds gdp, elec x meanAlloc, meanAlloc significant, uncorrected)\n")
	return []claim{
		num("gdp p", "6.6e-8", "%.2g", 0, 0.05, tab.P[0][0]),
		num("tests with p < 0.05", "3 of 15", "%.0f", 1, 5, float64(significant)),
	}
}

func fig17(e *env) []claim {
	text, res, err := report.Fig17(e.Study())
	check(err)
	e.printf("%s", text)
	frac := map[string]float64{}
	for _, r := range res.Rows {
		frac[r.Keyword] = r.FracDiurnal
	}
	return []claim{
		pct("dyn", "19%", 0.1, 0.35, frac["dyn"]),
		pct("dsl", "11%", 0.05, 0.25, frac["dsl"]),
		pct("dial", "< 3%", 0, 0.05, frac["dial"]),
		pct("classifiable", "46.3%", 0.35, 0.55, res.ClassifiedFrac),
		pct("multi-feature", "11.4%", 0.05, 0.2, res.MultiFrac),
	}
}

// --- extensions ---

func outages(e *env) []claim {
	w := must(world.Generate(world.Config{Blocks: e.blocks, Seed: e.seed ^ 0x0047, OutagesPerBlockWeek: 0.2}))
	st := must(analysis.MeasureWorld(w, analysis.StudyConfig{Days: e.days, Seed: e.seed, Metrics: e.metrics}))
	text, r, anova, err := report.Outages(st)
	check(err)
	e.printf("%s", text)
	return []claim{
		num("r vs GDP", "negative", "%.3f", -1, -0.3, r),
		num("ANOVA p", "", "%.2g", 0, 0.05, anova.P),
	}
}

func census(e *env) []claim {
	e.printf("Extension: active-address census and the diurnal swing (paper §5.6)\n")
	pts := must(analysis.AddressCensus(e.World(), analysis.DefaultStart, 72*time.Hour, time.Hour))
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Active
	}
	e.printf("%s", report.Series(vals, 100, 8))
	sw := must(analysis.SummarizeCensus(pts))
	e.printf("mean %.0f active addresses, daily swing %s of mean\n", sw.Mean, report.Pct(sw.SwingFraction))
	return []claim{pct("daily swing", "", 0.05, 0.2, sw.SwingFraction)}
}

func usc(e *env) []claim {
	e.printf("Extension: §3.2.4 campus ground-truth validation (USC-style network)\n")
	cc := world.CampusConfig{Seed: e.seed}
	if e.quick {
		cc.Wireless, cc.Dynamic, cc.General = 60, 16, 60
	}
	campus := must(world.GenerateCampus(cc))
	res := must(analysis.ValidateCampus(campus, analysis.StudyConfig{Days: e.days, Seed: e.seed}))
	rows := [][]string{}
	for _, cat := range []world.CampusCategory{
		world.CampusWireless, world.CampusDynamic, world.CampusGeneral, world.CampusGeneralPocket,
	} {
		cr := res.PerCategory[cat]
		if cr == nil {
			continue
		}
		rows = append(rows, []string{
			string(cat), fmt.Sprint(cr.Total), fmt.Sprint(cr.Excluded),
			fmt.Sprint(cr.Probed), fmt.Sprint(cr.Detected), fmt.Sprint(cr.Strict),
		})
	}
	e.printf("%s", report.Table([]string{"category", "blocks", "excluded", "probed", "diurnal", "strict"}, rows))
	e.printf("wireless exclusion rate: %s (paper: 119/142 = 84%% removed by the 15-active floor)\n",
		report.Pct(res.WirelessExclusionRate()))
	e.printf("=> sparse blocks cause false negatives, never false positives; Internet-wide\n")
	e.printf("   diurnal fractions are therefore lower bounds (§3.2.4)\n")
	detected := func(cat world.CampusCategory) float64 {
		cr := res.PerCategory[cat]
		return float64(cr.Detected) / float64(cr.Probed)
	}
	return []claim{
		pct("wireless excluded", "84%", 0.7, 0.95, res.WirelessExclusionRate()),
		pct("dynamic detected", "", 0.9, 1, detected(world.CampusDynamic)),
		pct("general false positives", "", 0, 0, detected(world.CampusGeneral)),
	}
}

func faultsweep(e *env) []claim {
	e.printf("Extension: classification accuracy vs injected measurement-path faults\n")
	e.printf("(strict/either agreement with survey ground truth; retries+gap-filling on)\n")
	cfg := analysis.FaultSweepConfig{
		Seed:  e.seed,
		Retry: trinocular.RetryConfig{MaxAttempts: 3},
	}
	if e.quick {
		cfg.Blocks, cfg.Days = 120, 5
		cfg.LossRates = []float64{0, 0.02, 0.10}
		cfg.RateLimits = []int{4}
	}
	pts := must(analysis.FaultSweep(cfg))
	rows := make([][]string, 0, len(pts))
	strict := map[string]float64{}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, fmt.Sprint(p.Measured), fmt.Sprint(p.Partial), fmt.Sprint(p.Quarantined),
			report.Pct(p.StrictAgree), report.Pct(p.EitherAgree),
		})
		strict[p.Label] = p.StrictAgree
	}
	e.printf("%s", report.Table([]string{"faults", "measured", "partial", "quarantined", "strict agree", "either agree"}, rows))
	e.printf("(the resilient probe path keeps agreement near the fault-free baseline\n")
	e.printf(" at deployment-realistic loss; heavy rate limiting degrades via quarantine)\n")
	return []claim{
		pct("strict agree, fault-free", "", 0.95, 1, strict["fault-free"]),
		pct("strict agree, 2% loss", "", 0.93, 1, strict["loss=2%"]),
	}
}
