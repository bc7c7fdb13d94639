// Command sleepscan runs the full measurement pipeline end to end — the
// equivalent of the paper's data-collection-plus-analysis chain: generate
// (or reuse) a synthetic world, probe every block adaptively for the given
// number of days, estimate availability, detect diurnal blocks, and print
// the global report: class counts, per-country and per-region tables, the
// probing budget, and where the Internet sleeps.
//
// Usage:
//
//	sleepscan [-blocks N] [-days N] [-seed N] [-restarts] [-json]
//	          [-loss P] [-corrupt P] [-ratelimit N] [-blackout-every D -blackout-for D]
//	          [-skew D] [-drift D] [-retries N] [-checkpoint FILE [-resume]]
//
// The monitor subcommand runs the measurement as a crash-tolerant service
// with durable WAL recovery and graceful signal drain:
//
//	sleepscan monitor [-blocks N] [-rounds N] [-shards N] [-seed N]
//	                  [-wal DIR] [-sync] [-snapshot-every N] [-o FILE]
//
// The serve subcommand runs the same campaign (same flags, campaign.go)
// behind the live HTTP query layer:
//
//	sleepscan serve [campaign flags] [-listen ADDR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/dataset"
	"sleepnet/internal/dsp"
	"sleepnet/internal/faults"
	"sleepnet/internal/geo"
	"sleepnet/internal/metrics"
	"sleepnet/internal/report"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "monitor" {
		runMonitor(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	blocks := flag.Int("blocks", 2000, "number of /24 blocks in the world")
	days := flag.Int("days", 14, "days of probing")
	seed := flag.Uint64("seed", 42, "seed")
	restarts := flag.Bool("restarts", true, "model 5.5h prober restarts")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON summary")
	outages := flag.Float64("outages", 0.15, "base outage episodes per block-week (0 disables)")
	savePath := flag.String("o", "", "save the measured dataset to this file")
	csvPath := flag.String("csv", "", "export per-block records as CSV to this file")
	loss := flag.Float64("loss", 0, "inject this probe loss probability")
	corrupt := flag.Float64("corrupt", 0, "inject this reply corruption probability")
	rateLimit := flag.Int("ratelimit", 0, "rate-limit probes per block per round (0 = off)")
	blackoutEvery := flag.Duration("blackout-every", 0, "vantage blackout period (with -blackout-for)")
	blackoutFor := flag.Duration("blackout-for", 0, "vantage blackout length (with -blackout-every)")
	skew := flag.Duration("skew", 0, "constant prober clock skew")
	drift := flag.Duration("drift", 0, "prober clock drift per day")
	retries := flag.Int("retries", 0, "retry attempts per probe for local send failures (0 = off)")
	checkpoint := flag.String("checkpoint", "", "checkpoint measured blocks to this file")
	resume := flag.Bool("resume", false, "resume from -checkpoint, skipping measured blocks")
	withMetrics := flag.Bool("metrics", false, "instrument the run and report its cost metrics")
	flag.Parse()

	w, err := world.Generate(world.Config{
		Blocks:              *blocks,
		Seed:                *seed,
		OutagesPerBlockWeek: *outages,
	})
	fatal(err)
	cfg := analysis.StudyConfig{
		Days:          *days,
		Seed:          *seed ^ 0x5ca9,
		MissingRate:   0.03,
		DuplicateRate: 0.02,
		Faults: faults.Config{
			Seed:              *seed ^ 0xfa17,
			LossRate:          *loss,
			CorruptRate:       *corrupt,
			RateLimitPerRound: *rateLimit,
			BlackoutEvery:     *blackoutEvery,
			BlackoutFor:       *blackoutFor,
			ClockSkew:         *skew,
			ClockDriftPerDay:  *drift,
		},
		Retry:          trinocular.RetryConfig{MaxAttempts: *retries},
		CheckpointPath: *checkpoint,
		Resume:         *resume,
	}
	if *restarts {
		cfg.RestartInterval = 5*time.Hour + 30*time.Minute
	}
	var reg *metrics.Registry
	if *withMetrics {
		reg = metrics.New()
		cfg.Metrics = reg
		dsp.SetMetrics(reg)
		defer dsp.SetMetrics(nil)
	}
	//lint:allow nowallclock: CLI-only elapsed display; never written into datasets or reports
	t0 := time.Now()
	st, err := analysis.MeasureWorld(w, cfg)
	fatal(err)
	//lint:allow nowallclock: CLI-only elapsed display; never written into datasets or reports
	elapsed := time.Since(t0)

	strict, either := st.DiurnalFraction()
	counts := st.CountByClass()
	minBlocks := len(w.Blocks) / 400
	if minBlocks < 3 {
		minBlocks = 3
	}

	if *asJSON {
		out := map[string]any{
			"blocks":         len(w.Blocks),
			"measured":       len(st.Measured()),
			"days":           *days,
			"strictFraction": strict,
			"eitherFraction": either,
			"strictBlocks":   counts[core.StrictDiurnal],
			"relaxedBlocks":  counts[core.RelaxedDiurnal],
			"nonDiurnal":     counts[core.NonDiurnal],
			"probesPerHour":  st.ProbeBudget(),
			"elapsedSeconds": elapsed.Seconds(),
			"countries":      st.CountryTable(minBlocks),
			"regions":        st.RegionTable(),
			"errors":         st.ErrorCount(),
			"partial":        st.PartialCount(),
			"quarantined":    st.QuarantinedCount(),
		}
		if msg := st.FirstError(); msg != "" {
			out["firstError"] = msg
		}
		if cfg.Faults.Active() {
			fs := st.FaultTotals()
			failed, rt, se, rl := st.DegradationTotals()
			out["faults"] = map[string]any{
				"dropped":          fs.Dropped,
				"rateLimited":      fs.RateLimited,
				"sendErrors":       fs.SendErrors,
				"corrupted":        fs.Corrupted,
				"failedRounds":     failed,
				"retries":          rt,
				"probeSendErrors":  se,
				"probeRateLimited": rl,
			}
		}
		if reg != nil {
			out["metrics"] = reg.Snapshot()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(out))
		return
	}

	fmt.Printf("sleepscan: %d blocks probed for %d days in %v\n",
		len(st.Measured()), *days, elapsed.Round(time.Millisecond))
	fmt.Printf("probing budget: %.1f probes/block/hour (paper budget: < 20)\n\n", st.ProbeBudget())
	if n := st.ErrorCount(); n > 0 {
		fmt.Printf("measurement errors: %d blocks (first: %s)\n\n", n, st.FirstError())
	}
	if cfg.Faults.Active() {
		fs := st.FaultTotals()
		failed, rt, se, rl := st.DegradationTotals()
		fmt.Printf("fault injection: %s\n", fs)
		fmt.Printf("degradation: failed rounds=%d retries=%d send errors=%d rate limited=%d\n", failed, rt, se, rl)
		fmt.Printf("population: %d partial, %d quarantined\n\n", st.PartialCount(), st.QuarantinedCount())
	}
	fmt.Printf("strictly diurnal: %d (%s)   relaxed: %d   non-diurnal: %d\n",
		counts[core.StrictDiurnal], report.Pct(strict),
		counts[core.RelaxedDiurnal], counts[core.NonDiurnal])
	fmt.Printf("either diurnal: %s (paper: 11%% strict, 25%% either at full scale)\n\n", report.Pct(either))

	fmt.Println("where the Internet sleeps (fraction of diurnal blocks by region):")
	rows := [][]string{}
	for _, r := range st.RegionTable() {
		rows = append(rows, []string{r.Region, fmt.Sprint(r.Blocks), report.F(r.FracDiurnal)})
	}
	fmt.Print(report.Table([]string{"region", "blocks", "frac diurnal"}, rows))

	fmt.Println("\ntop countries:")
	rows = rows[:0]
	for i, r := range st.CountryTable(minBlocks) {
		if i >= 15 {
			break
		}
		rows = append(rows, []string{r.Code, fmt.Sprint(r.Blocks), report.F(r.FracDiurnal), fmt.Sprintf("%.0f", r.GDP)})
	}
	fmt.Print(report.Table([]string{"country", "blocks", "frac diurnal", "GDP"}, rows))

	db := geo.FromWorld(w, 0.93, *seed)
	if res, err := st.CorrelateGDP(minBlocks); err == nil {
		fmt.Printf("\ndiurnalness vs GDP correlation: %.3f (paper: -0.526)\n", res.R)
	}
	if pl, err := st.PhaseVsLongitude(db, true); err == nil {
		fmt.Printf("phase vs longitude correlation: %.3f (paper: 0.763 relaxed)\n", pl.R)
	}

	if *outages > 0 {
		fmt.Println("\nreliability (diurnal blocks excluded so sleep is not counted as outage):")
		rows = rows[:0]
		for i, r := range st.OutageTable(minBlocks, true) {
			if i >= 10 {
				break
			}
			rows = append(rows, []string{
				r.Code, fmt.Sprint(r.Blocks), fmt.Sprintf("%.3f", r.EpisodesPerBlockWeek),
				r.Agg.NinesString(),
			})
		}
		fmt.Print(report.Table([]string{"country", "blocks", "outages/blk-week", "uptime"}, rows))
		if r, anova, err := st.OutageGDPCorrelation(minBlocks); err == nil {
			fmt.Printf("outage rate vs GDP correlation: %.3f (p = %.3g)\n", r, anova.P)
		}
	}

	if reg != nil {
		fmt.Println("\nrun metrics:")
		fmt.Print(report.Metrics(reg.Snapshot()))
	}

	saveDataset(st, reg, *savePath, *csvPath)
}

// saveDataset persists the study when output paths were requested, attaching
// the run-cost snapshot when the campaign was instrumented.
func saveDataset(st *analysis.Study, reg *metrics.Registry, savePath, csvPath string) {
	if savePath == "" && csvPath == "" {
		return
	}
	ds := dataset.FromStudy(st)
	if reg != nil {
		ds.Metrics = reg.Snapshot()
	}
	if savePath != "" {
		fatal(ds.Save(savePath))
		fmt.Printf("\ndataset saved to %s (%d records)\n", savePath, len(ds.Blocks))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		fatal(err)
		fatal(ds.ExportCSV(f))
		fatal(f.Close())
		fmt.Printf("CSV exported to %s\n", csvPath)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sleepscan:", err)
		os.Exit(1)
	}
}
