// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulated world. Run with a list of experiment ids
// (fig1..fig17, table1..table5) or "all".
//
// Usage:
//
//	experiments [-blocks N] [-seed N] [-days N] [-quick] all
//	experiments table3 fig16 table5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"sleepnet/internal/agree"
	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/dsp"
	"sleepnet/internal/geo"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/report"
	"sleepnet/internal/stats"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

var (
	flagBlocks     = flag.Int("blocks", 3000, "blocks in the simulated world")
	flagSeed       = flag.Uint64("seed", 42, "world and measurement seed")
	flagDays       = flag.Int("days", 14, "days of probing for world-scale studies")
	flagQuick      = flag.Bool("quick", false, "smaller populations and sweeps")
	flagPNG        = flag.String("png", "", "directory to write fig12/fig13 world maps as PNG")
	flagMetrics    = flag.Bool("metrics", false, "instrument the runs and print cost metrics at the end")
	flagMetricsOut = flag.String("metricsout", "", "write the metrics snapshot as JSON to this file")
	flagCPUProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	flagMemProfile = flag.String("memprofile", "", "write a pprof heap profile taken after the selected experiments to this file")
	flagAgreeOut   = flag.String("agreeout", "", "write the agree experiment's report as JSON to this file")
)

// ctx lazily builds the shared world and study.
type ctx struct {
	world   *world.World
	study   *analysis.Study
	geoDB   *geo.DB
	metrics *metrics.Registry
}

func (c *ctx) World() *world.World {
	if c.world == nil {
		n := *flagBlocks
		if *flagQuick && n > 1000 {
			n = 1000
		}
		w, err := world.Generate(world.Config{Blocks: n, Seed: *flagSeed})
		must(err)
		c.world = w
		fmt.Printf("# world: %d blocks, seed %d\n", len(w.Blocks), *flagSeed)
	}
	return c.world
}

func (c *ctx) Study() *analysis.Study {
	if c.study == nil {
		w := c.World()
		//lint:allow nowallclock: CLI-only elapsed display on a "#" comment line; never parsed or persisted
		start := time.Now()
		st, err := analysis.MeasureWorld(w, analysis.StudyConfig{
			Days:            *flagDays,
			Seed:            *flagSeed ^ 0xabcd,
			RestartInterval: 5*time.Hour + 30*time.Minute,
			MissingRate:     0.03,
			DuplicateRate:   0.02,
			Metrics:         c.metrics,
		})
		must(err)
		c.study = st
		strict, either := st.DiurnalFraction()
		fmt.Printf("# study: %d blocks measured in %v; %s strict, %s either diurnal; %.1f probes/block/hour\n",
			//lint:allow nowallclock: CLI-only elapsed display on a "#" comment line; never parsed or persisted
			len(st.Measured()), time.Since(start).Round(time.Millisecond),
			report.Pct(strict), report.Pct(either), st.ProbeBudget())
	}
	return c.study
}

func (c *ctx) Geo() *geo.DB {
	if c.geoDB == nil {
		c.geoDB = geo.FromWorld(c.World(), 0.93, *flagSeed^0x9e0)
	}
	return c.geoDB
}

// minCountryBlocks scales the paper's 1000-block floor to the world size.
func (c *ctx) minCountryBlocks() int {
	m := len(c.World().Blocks) / 400
	if m < 3 {
		m = 3
	}
	return m
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	// The heap-profile defer is registered first so it runs after the CPU
	// profile has stopped: its runtime.GC barrier then cannot pollute the
	// CPU samples.
	if *flagMemProfile != "" {
		defer func() {
			f, err := os.Create(*flagMemProfile)
			must(err)
			runtime.GC() // materialize the retained-heap picture
			must(pprof.WriteHeapProfile(f))
			must(f.Close())
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *flagMemProfile)
		}()
	}
	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		must(err)
		must(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			must(f.Close())
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *flagCPUProfile)
		}()
	}
	c := &ctx{}
	if *flagMetrics || *flagMetricsOut != "" {
		c.metrics = metrics.New()
		dsp.SetMetrics(c.metrics)
		defer dsp.SetMetrics(nil)
	}
	runners := experimentRunners()
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for id := range runners {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	} else {
		ids = args
	}
	for _, id := range ids {
		run, ok := runners[strings.ToLower(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
			usage()
			os.Exit(2)
		}
		fmt.Printf("\n===== %s =====\n", strings.ToLower(id))
		run(c)
	}
	if c.metrics != nil {
		snap := c.metrics.Snapshot()
		if *flagMetrics {
			fmt.Println("\n===== run metrics =====")
			fmt.Print(report.Metrics(snap))
		}
		if *flagMetricsOut != "" {
			f, err := os.Create(*flagMetricsOut)
			must(err)
			must(snap.WriteJSON(f))
			must(f.Close())
			fmt.Printf("metrics snapshot written to %s\n", *flagMetricsOut)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [flags] <all | ids...>")
	fmt.Fprintln(os.Stderr, "ids: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12")
	fmt.Fprintln(os.Stderr, "     fig13 fig14 fig15 fig16 fig17 table1 table2 table3 table4 table5")
	fmt.Fprintln(os.Stderr, "     outages census usc faults agree (extensions)")
	flag.PrintDefaults()
}

func experimentRunners() map[string]func(*ctx) {
	return map[string]func(*ctx){
		"fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4,
		"fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
		"fig9": fig9, "fig10": fig10, "fig11": fig11, "fig12": fig12,
		"fig13": fig13, "fig14": fig14, "fig15": fig15, "fig16": fig16,
		"fig17":  fig17,
		"table1": table1, "table2": table2, "table3": table3,
		"table4": table4, "table5": table5,
		// Extensions beyond the paper's figures (see DESIGN.md):
		// outage-economics correlation (§7), the active-address census
		// application (§5.6), campus validation, and the fault-injection
		// robustness sweep.
		"outages": outages, "census": census, "usc": usc,
		"faults": faultsweep, "agree": agreement,
	}
}

// --- sample blocks (Figs 1-3, 6) ---

// sampleBlock builds one of the paper's three archetype blocks and runs
// the estimator pipeline, its classification and the ground-truth survey on
// it.
func sampleBlock(kind string, days int) (*core.BlockRun, core.DiurnalResult, []float64) {
	net := netsim.NewNetwork(*flagSeed)
	blk := &netsim.Block{Seed: *flagSeed}
	var hosts netsim.Hosts
	switch kind {
	case "sparse":
		blk.ID = netsim.MakeBlockID(1, 9, 21)
		for h := 0; h < 42; h++ {
			hosts[h] = netsim.Intermittent{P: 0.735, Seed: uint64(h) + 5}
		}
		oStart := analysis.DefaultStart.Add(957 * 660 * time.Second)
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
		Seed:   *flagSeed,
	})
	run, err := pl.RunBlock(blk.ID)
	must(err)
	res, err := pl.Classify(run)
	must(err)
	sv, err := pl.Survey(blk.ID)
	must(err)
	return run, res, sv.Values
}

func printSample(run *core.BlockRun, res core.DiurnalResult, truth []float64, fftToo bool) {
	fmt.Printf("block %s: %d rounds, %d days trimmed, class=%s\n",
		run.ID, run.Short.Len(), run.Days, res.Class)
	fmt.Printf("probes sent: %d (%.1f per hour)\n", run.ProbesSent,
		float64(run.ProbesSent)/(float64(run.Short.Len())*660/3600))
	fmt.Println("\ntrue A (survey):")
	fmt.Print(report.Series(truth, 100, 8))
	fmt.Println("estimated Âs:")
	fmt.Print(report.Series(run.Short.Values, 100, 8))
	fmt.Println("operational Âo:")
	fmt.Print(report.Series(run.Operational, 100, 8))
	for _, ev := range run.Outages {
		state := "recovery"
		if ev.Down {
			state = "OUTAGE"
		}
		fmt.Printf("event: round %d %s\n", ev.Round, state)
	}
	if fftToo {
		fmt.Printf("\nFFT amplitude (bins 1..%d; diurnal bin N_d = %d):\n", 4*run.Days, run.Days)
		amps := res.Spectrum.Amp
		hi := 4 * run.Days
		if hi >= len(amps) {
			hi = len(amps) - 1
		}
		fmt.Print(report.Series(amps[1:hi+1], 100, 8))
		fmt.Printf("diurnal amp %.2f, next strongest non-harmonic %.2f, peak bin %d\n",
			res.DiurnalAmp, res.NextAmp, res.PeakBin)
	}
}

func fig1(c *ctx) {
	fmt.Println("Fig 1: sparse but high-availability block (A ~ 0.735, 42 addrs), with outage")
	run, res, truth := sampleBlock("sparse", 14)
	printSample(run, res, truth, true)
}

func fig2(c *ctx) {
	fmt.Println("Fig 2: dense but low-availability block (A ~ 0.191, 245 addrs)")
	run, res, truth := sampleBlock("dense", 14)
	printSample(run, res, truth, false)
}

func fig3(c *ctx) {
	fmt.Println("Fig 3: diurnal block (N_d = 14); FFT shows strong diurnal peak")
	run, res, truth := sampleBlock("diurnal", 14)
	printSample(run, res, truth, true)
}

func fig6(c *ctx) {
	days := 35
	if *flagQuick {
		days = 21
	}
	fmt.Printf("Fig 6: same diurnal block over %d days; diurnal peak at k = %d\n", days, days)
	run, res, _ := sampleBlock("diurnal", days)
	fmt.Printf("class=%s fundamental bin=%d (N_d=%d) amp=%.2f next=%.2f\n",
		res.Class, res.FundamentalBin, run.Days,
		res.DiurnalAmp, res.NextAmp)
	amps := res.Spectrum.Amp
	hi := 4 * run.Days
	if hi >= len(amps) {
		hi = len(amps) - 1
	}
	fmt.Print(report.Series(amps[1:hi+1], 100, 8))
}

// --- estimator validation (Figs 4, 5; Table 1) ---

func surveyWorldCfg(c *ctx) (*world.World, core.PipelineConfig) {
	n := 250
	if *flagQuick {
		n = 120
	}
	w, err := world.Generate(world.Config{Blocks: n, Seed: *flagSeed ^ 0xf15})
	must(err)
	days := 7
	cfg := core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(days),
		Seed:   *flagSeed,
	}
	return w, cfg
}

func fig4(c *ctx) {
	fmt.Println("Fig 4: correlation of true A and short-term estimate Âs")
	w, cfg := surveyWorldCfg(c)
	res, err := analysis.CompareEstimatorToTruth(w, cfg, analysis.ShortTermEstimate, 0)
	must(err)
	fmt.Printf("pooled pairs: %d over %d blocks\n", res.Pairs, res.Blocks)
	fmt.Printf("correlation coefficient: %.5f (paper: 0.95685)\n", res.R)
	fmt.Println("quartiles of Âs binned by 0.1 of true A:")
	rows := make([][]string, 0, 10)
	for g, q := range res.Quartiles {
		rows = append(rows, []string{
			fmt.Sprintf("[%.1f,%.1f)", float64(g)/10, float64(g+1)/10),
			report.F(q[0]), report.F(q[1]), report.F(q[2]),
		})
	}
	fmt.Print(report.Table([]string{"true A", "Q1", "median", "Q3"}, rows))
}

func fig5(c *ctx) {
	fmt.Println("Fig 5: correlation of true A and operational estimate Âo")
	w, cfg := surveyWorldCfg(c)
	res, err := analysis.CompareEstimatorToTruth(w, cfg, analysis.OperationalEstimate, 0)
	must(err)
	fmt.Printf("pooled pairs: %d over %d blocks\n", res.Pairs, res.Blocks)
	fmt.Printf("Âo at or under true A: %s of rounds (paper: 94%%)\n", report.Pct(res.UnderFrac))
	fmt.Printf("correlation coefficient: %.5f\n", res.R)
}

func table1(c *ctx) {
	fmt.Println("Table 1: diurnal detection validated against full-survey truth")
	w, cfg := surveyWorldCfg(c)
	v, err := analysis.ValidateDiurnalDetection(w, cfg, 0)
	must(err)
	rows := [][]string{
		{"d (truth)", "d̂ (pred)", fmt.Sprint(v.TruePos), report.Pct(float64(v.TruePos) / float64(v.Total()))},
		{"n", "n̂", fmt.Sprint(v.TrueNeg), report.Pct(float64(v.TrueNeg) / float64(v.Total()))},
		{"d", "n̂", fmt.Sprint(v.FalseNeg), report.Pct(float64(v.FalseNeg) / float64(v.Total()))},
		{"n", "d̂", fmt.Sprint(v.FalsePos), report.Pct(float64(v.FalsePos) / float64(v.Total()))},
	}
	fmt.Print(report.Table([]string{"truth", "predicted", "blocks", "share"}, rows))
	fmt.Printf("precision: %s (paper: 82.48%%)   accuracy: %s (paper: 90.99%%)\n",
		report.Pct(v.Precision()), report.Pct(v.Accuracy()))
}

// --- controlled sweeps (Figs 7-9) ---

func sweepBase() analysis.SweepConfig {
	cfg := analysis.SweepConfig{Seed: *flagSeed}
	if *flagQuick {
		cfg.Batches, cfg.PerBatch, cfg.Weeks = 3, 10, 2
	} else {
		cfg.Batches, cfg.PerBatch, cfg.Weeks = 10, 30, 4
	}
	return cfg
}

func printSweep(pts []analysis.SweepPoint, xlabel string) {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			report.F(p.X), report.Pct(p.Mean), report.Pct(p.Q1), report.Pct(p.Median), report.Pct(p.Q3),
		})
	}
	fmt.Print(report.Table([]string{xlabel, "accuracy", "Q1", "median", "Q3"}, rows))
}

func fig7(c *ctx) {
	fmt.Println("Fig 7: detection accuracy vs number of diurnal addresses (Φ=σs=σd=0)")
	counts := []int{1, 2, 5, 10, 20, 40, 60, 80, 100}
	if *flagQuick {
		counts = []int{2, 10, 40, 100}
	}
	pts, err := analysis.SweepDiurnalCount(counts, sweepBase())
	must(err)
	printSweep(pts, "n_d")
}

func fig8(c *ctx) {
	fmt.Println("Fig 8: detection accuracy vs maximum phase spread Φ (n_d=100)")
	hours := []float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}
	if *flagQuick {
		hours = []float64{0, 8, 14, 20}
	}
	pts, err := analysis.SweepPhaseSpread(hours, sweepBase())
	must(err)
	printSweep(pts, "Φ (hours)")
}

func fig9(c *ctx) {
	fmt.Println("Fig 9: detection accuracy vs uptime-duration noise σd (n_d=100)")
	hours := []float64{0, 2, 4, 6, 8, 10, 14, 18, 24}
	if *flagQuick {
		hours = []float64{0, 6, 12, 24}
	}
	pts, err := analysis.SweepDurationSigma(hours, sweepBase())
	must(err)
	printSweep(pts, "σd (hours)")
}

// --- world-scale results ---

func table2(c *ctx) {
	fmt.Println("Table 2: agreement between two vantage points over the same world")
	a := c.Study()
	b, err := analysis.MeasureWorld(c.World(), analysis.StudyConfig{
		Days: *flagDays, Seed: *flagSeed ^ 0x7e1e, Metrics: c.metrics,
	})
	must(err)
	cs, err := analysis.CompareSites(a, b)
	must(err)
	names := []string{"d (strict)", "e (either)", "N (non)"}
	rows := make([][]string, 3)
	for i := range rows {
		rows[i] = []string{names[i],
			fmt.Sprint(cs.M[i][0]), fmt.Sprint(cs.M[i][1]), fmt.Sprint(cs.M[i][2])}
	}
	fmt.Print(report.Table([]string{"site A \\ site B", "d", "e", "N"}, rows))
	fmt.Printf("strong disagreement (A strict, B non): %s (paper: ~1.2%%)\n",
		report.Pct(cs.StrongDisagree))
	if ks, err := analysis.CompareSiteFrequencies(a, b); err == nil {
		fmt.Printf("frequency-distribution KS: D = %.3f (small D = sites agree distributionally)\n", ks.D)
	}
}

func fig10(c *ctx) {
	fmt.Println("Fig 10: CDF of the strongest frequency per block")
	st := c.Study()
	fd, err := st.FrequencyCDF()
	must(err)
	fmt.Printf("mass near 1 cycle/day: %s (paper: ~25%%)\n", report.Pct(fd.FracDaily))
	fmt.Printf("mass near 4.4 cycles/day (prober restart artifact): %s (paper: ~3%%)\n",
		report.Pct(fd.FracRestartArtifact))
	fmt.Println("CDF at selected frequencies (cycles/day):")
	rows := [][]string{}
	for _, f := range []float64{0.5, 0.9, 1.1, 2, 4, 4.6, 8, 16} {
		rows = append(rows, []string{report.F(f), report.Pct(fd.CDF.At(f))})
	}
	fmt.Print(report.Table([]string{"cycles/day", "CDF"}, rows))
}

func fig11(c *ctx) {
	n, per := 12, 250
	if *flagQuick {
		n, per = 6, 120
	}
	fmt.Printf("Fig 11: diurnal fraction across %d long-term surveys\n", n)
	pts, err := analysis.LongTermTrend(n, per, *flagSeed)
	must(err)
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Date.Format("2006-01"), p.Site, fmt.Sprint(p.Blocks), report.Pct(p.FracDiurnal),
		})
	}
	fmt.Print(report.Table([]string{"date", "site", "blocks", "frac diurnal"}, rows))
}

func worldGrids(c *ctx) *analysis.WorldMaps {
	maps, err := c.Study().BuildWorldMaps(c.Geo())
	must(err)
	return maps
}

func fig12(c *ctx) {
	fmt.Println("Fig 12: observable blocks per 2°x2° cell (log grayscale)")
	maps := worldGrids(c)
	fmt.Printf("geolocated blocks: %d; non-empty cells: %d; max cell: %d\n",
		maps.Geolocated, maps.Counts.NonEmptyCells(), maps.Counts.MaxCount())
	printWorld(maps, false)
	writeWorldPNG(maps, false, "fig12.png")
}

func fig13(c *ctx) {
	fmt.Println("Fig 13: percent of observable blocks that are diurnal per cell")
	maps := worldGrids(c)
	printWorld(maps, true)
	writeWorldPNG(maps, true, "fig13.png")
}

// writeWorldPNG renders the 2° grid to a PNG when -png was given.
func writeWorldPNG(maps *analysis.WorldMaps, fractions bool, name string) {
	if *flagPNG == "" {
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
	path := *flagPNG + "/" + name
	f, err := os.Create(path)
	must(err)
	defer f.Close()
	if fractions {
		fr := make([][]float64, ny)
		for y := range fr {
			fr[y] = make([]float64, nx)
			for x := range fr[y] {
				if counts[y][x] == 0 {
					fr[y][x] = nan()
				} else {
					fr[y][x] = float64(marked[y][x]) / float64(counts[y][x])
				}
			}
		}
		must(report.FractionPNG(f, fr, 6))
	} else {
		must(report.HeatPNG(f, counts, 6))
	}
	fmt.Printf("wrote %s\n", path)
}

// printWorld downsamples the 2° grid to a terminal-sized map between 60S
// and 72N.
func printWorld(maps *analysis.WorldMaps, fractions bool) {
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
	if !fractions {
		fmt.Print(report.Heatmap(counts))
		return
	}
	fr := make([][]float64, rows)
	for r := range fr {
		fr[r] = make([]float64, cols)
		for cc := range fr[r] {
			if counts[r][cc] == 0 {
				fr[r][cc] = nan()
			} else {
				fr[r][cc] = float64(marked[r][cc]) / float64(counts[r][cc])
			}
		}
	}
	fmt.Print(report.FractionMap(fr))
}

func nan() float64 { var z float64; return 0 / z }

func table3(c *ctx) {
	fmt.Println("Table 3: fraction of diurnal blocks by country (top 20 + US)")
	st := c.Study()
	rows := st.CountryTable(c.minCountryBlocks())
	out := [][]string{}
	for i, r := range rows {
		if i >= 20 && r.Code != "US" {
			continue
		}
		lo, hi := stats.WilsonInterval(r.Diurnal, r.Blocks, 0.95)
		out = append(out, []string{
			r.Code, r.Region, fmt.Sprint(r.Blocks), report.F(r.FracDiurnal),
			fmt.Sprintf("[%.3f, %.3f]", lo, hi),
			fmt.Sprintf("%.0f", r.GDP),
		})
	}
	fmt.Print(report.Table([]string{"country", "region", "blocks", "frac diurnal", "95% CI", "GDP (US$)"}, out))
}

func table4(c *ctx) {
	fmt.Println("Table 4: fraction of diurnal blocks by region")
	rows := c.Study().RegionTable()
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Region, fmt.Sprint(r.Blocks), report.F(r.FracDiurnal)})
	}
	fmt.Print(report.Table([]string{"region", "blocks", "frac diurnal"}, out))
}

func fig14(c *ctx) {
	fmt.Println("Fig 14: diurnal phase vs longitude")
	st := c.Study()
	strict, err := st.PhaseVsLongitude(c.Geo(), false)
	must(err)
	relaxed, err := st.PhaseVsLongitude(c.Geo(), true)
	must(err)
	fmt.Printf("(a) strict diurnal:  %d blocks, unrolled-phase/longitude r = %.3f (paper: 0.835)\n",
		strict.Blocks, strict.R)
	fmt.Printf("(b) either diurnal:  %d blocks, r = %.3f (paper: 0.763)\n",
		relaxed.Blocks, relaxed.R)
	fmt.Println("(c) longitude predicted from phase (selected phases):")
	rows := [][]string{}
	for _, ph := range []float64{-3, -2, -1, 0, 1, 2, 3} {
		lon, sd, ok := relaxed.PredictLongitude(ph)
		if !ok {
			rows = append(rows, []string{report.F(ph), "n/a", "n/a"})
			continue
		}
		rows = append(rows, []string{report.F(ph), fmt.Sprintf("%.0f°", lon), fmt.Sprintf("±%.0f°", sd)})
	}
	fmt.Print(report.Table([]string{"phase (rad)", "mean lon", "stddev"}, rows))
}

func fig15(c *ctx) {
	fmt.Println("Fig 15: percent diurnal by /8 allocation month")
	st := c.Study()
	res, err := st.AllocationDateTrend(c.minCountryBlocks())
	must(err)
	rows := [][]string{}
	step := len(res.Months)/12 + 1
	for i := 0; i < len(res.Months); i += step {
		rows = append(rows, []string{
			res.Months[i].Format("2006-01"), fmt.Sprint(res.Blocks[i]), report.Pct(res.Frac[i]),
		})
	}
	fmt.Print(report.Table([]string{"alloc month", "blocks", "frac diurnal"}, rows))
	fmt.Printf("linear fit: slope %+.3f%%/month (paper: +0.08%%), r = %.3f (paper: 0.609)\n",
		res.Fit.Slope, res.Fit.R)
}

func fig16(c *ctx) {
	fmt.Println("Fig 16: diurnal fraction vs per-capita GDP by country")
	res, err := c.Study().CorrelateGDP(c.minCountryBlocks())
	must(err)
	fmt.Printf("countries: %d; correlation: %.3f (paper: -0.526)\n", len(res.Rows), res.R)
	fmt.Printf("fit: frac = %.4f %+.3g * GDP\n", res.Fit.Intercept, res.Fit.Slope)
	labels := []string{}
	vals := []float64{}
	for i, r := range res.Rows {
		if i >= 12 {
			break
		}
		labels = append(labels, fmt.Sprintf("%s ($%.0fk)", r.Code, r.GDP/1000))
		vals = append(vals, r.FracDiurnal)
	}
	fmt.Print(report.BarChart(labels, vals, 50))
}

func table5(c *ctx) {
	fmt.Println("Table 5: ANOVA p-values — factors vs diurnal fraction")
	tab, err := c.Study().ANOVATable(c.minCountryBlocks())
	must(err)
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
	for k, ok := range mask {
		bh[pos[k]] = ok
		bh[[2]int{pos[k][1], pos[k][0]}] = ok
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
	fmt.Print(report.Table(headers, rows))
	fmt.Println("(* = raw p < 0.05, + = survives Benjamini-Hochberg FDR 0.05 over all 15 tests;")
	fmt.Println(" paper finds gdp, elec x meanAlloc, meanAlloc significant, uncorrected)")
}

func outages(c *ctx) {
	fmt.Println("Extension: outage rates vs economics (paper §7)")
	n := *flagBlocks
	if *flagQuick && n > 1000 {
		n = 1000
	}
	w, err := world.Generate(world.Config{Blocks: n, Seed: *flagSeed ^ 0x0047, OutagesPerBlockWeek: 0.2})
	must(err)
	st, err := analysis.MeasureWorld(w, analysis.StudyConfig{Days: *flagDays, Seed: *flagSeed, Metrics: c.metrics})
	must(err)
	min := n / 400
	if min < 3 {
		min = 3
	}
	rows := [][]string{}
	for i, r := range st.OutageTable(min, true) {
		if i >= 15 {
			break
		}
		rows = append(rows, []string{
			r.Code, fmt.Sprint(r.Blocks), fmt.Sprintf("%.3f", r.EpisodesPerBlockWeek),
			r.Agg.NinesString(), fmt.Sprintf("%.0f", r.GDP),
		})
	}
	fmt.Print(report.Table([]string{"country", "blocks", "outages/blk-week", "uptime", "GDP"}, rows))
	r, anova, err := st.OutageGDPCorrelation(min)
	must(err)
	fmt.Printf("outage rate vs GDP: r = %.3f, ANOVA p = %s\n", r, report.F(anova.P))
}

func census(c *ctx) {
	fmt.Println("Extension: active-address census and the diurnal swing (paper §5.6)")
	w := c.World()
	pts, err := analysis.AddressCensus(w, analysis.DefaultStart, 72*time.Hour, time.Hour)
	must(err)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Active
	}
	fmt.Print(report.Series(vals, 100, 8))
	sw, err := analysis.SummarizeCensus(pts)
	must(err)
	fmt.Printf("mean %.0f active addresses, daily swing %s of mean\n", sw.Mean, report.Pct(sw.SwingFraction))
}

func usc(c *ctx) {
	fmt.Println("Extension: §3.2.4 campus ground-truth validation (USC-style network)")
	cc := world.CampusConfig{Seed: *flagSeed}
	if *flagQuick {
		cc.Wireless, cc.Dynamic, cc.General = 60, 16, 60
	}
	campus, err := world.GenerateCampus(cc)
	must(err)
	res, err := analysis.ValidateCampus(campus, analysis.StudyConfig{Days: *flagDays, Seed: *flagSeed})
	must(err)
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
	fmt.Print(report.Table([]string{"category", "blocks", "excluded", "probed", "diurnal", "strict"}, rows))
	fmt.Printf("wireless exclusion rate: %s (paper: 119/142 = 84%% removed by the 15-active floor)\n",
		report.Pct(res.WirelessExclusionRate()))
	fmt.Println("=> sparse blocks cause false negatives, never false positives; Internet-wide")
	fmt.Println("   diurnal fractions are therefore lower bounds (§3.2.4)")
}

func faultsweep(c *ctx) {
	fmt.Println("Extension: classification accuracy vs injected measurement-path faults")
	fmt.Println("(strict/either agreement with survey ground truth; retries+gap-filling on)")
	cfg := analysis.FaultSweepConfig{
		Seed:  *flagSeed,
		Retry: trinocular.RetryConfig{MaxAttempts: 3},
	}
	if *flagQuick {
		cfg.Blocks, cfg.Days = 120, 5
		cfg.LossRates = []float64{0, 0.02, 0.10}
		cfg.RateLimits = []int{4}
	}
	pts, err := analysis.FaultSweep(cfg)
	must(err)
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, fmt.Sprint(p.Measured), fmt.Sprint(p.Partial), fmt.Sprint(p.Quarantined),
			report.Pct(p.StrictAgree), report.Pct(p.EitherAgree),
		})
	}
	fmt.Print(report.Table([]string{"faults", "measured", "partial", "quarantined", "strict agree", "either agree"}, rows))
	fmt.Println("(the resilient probe path keeps agreement near the fault-free baseline")
	fmt.Println(" at deployment-realistic loss; heavy rate limiting degrades via quarantine)")
}

func agreement(c *ctx) {
	fmt.Println("Extension: streaming-vs-batch classifier agreement (confusion matrices")
	fmt.Println("per world scenario × fault level; batch FFT pipeline is the oracle)")
	cfg := agree.Config{Seed: *flagSeed}
	if *flagQuick {
		cfg.Blocks, cfg.Days = 90, 5
	}
	rep, err := agree.Run(cfg)
	must(err)
	fmt.Print(rep.Markdown())
	if bad := agree.DefaultContract().Check(rep); len(bad) != 0 {
		fmt.Println("\ncontract VIOLATED:")
		for _, b := range bad {
			fmt.Println("  -", b)
		}
		os.Exit(1)
	}
	fmt.Println("\ncontract: PASS (thresholds in internal/agree/contract.go)")
	if *flagAgreeOut != "" {
		f, err := os.Create(*flagAgreeOut)
		must(err)
		must(rep.WriteJSON(f))
		must(f.Close())
		fmt.Printf("agreement report written to %s\n", *flagAgreeOut)
	}
}

func fig17(c *ctx) {
	fmt.Println("Fig 17: fraction of diurnal blocks per access-link keyword")
	res, err := c.Study().LinkTypes(*flagSeed ^ 0x11d)
	must(err)
	fmt.Printf("blocks with features: %s (paper: 46.3%%); multiple features: %s (paper: 11.4%%)\n",
		report.Pct(res.ClassifiedFrac), report.Pct(res.MultiFrac))
	labels := make([]string, 0, len(res.Rows))
	vals := make([]float64, 0, len(res.Rows))
	for _, r := range res.Rows {
		labels = append(labels, fmt.Sprintf("%s (n=%d)", r.Keyword, r.Blocks))
		vals = append(vals, r.FracDiurnal)
	}
	fmt.Print(report.BarChart(labels, vals, 50))
}
