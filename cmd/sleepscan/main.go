// Command sleepscan runs the full measurement pipeline end to end — the
// equivalent of the paper's data-collection-plus-analysis chain: generate
// (or reuse) a synthetic world, probe every block adaptively for the given
// number of days, estimate availability, detect diurnal blocks, and print
// the study report: the population and its class counts, the probing
// budget, the per-region, per-country and per-link-type tables, the GDP and
// phase–longitude correlations, and reliability.
//
// Usage:
//
//	sleepscan [-blocks N] [-days N] [-seed N] [-restarts]
//	          [-loss P] [-corrupt P] [-ratelimit N] [-blackout-every D -blackout-for D]
//	          [-skew D] [-drift D] [-retries N] [-o FILE [-resume]] [-csv FILE]
//
// -o saves the study to FILE as it is measured, one block a line; a run
// that is killed is finished by the same command with -resume.
//
// The inspect subcommand reads a completed study file and prints the same
// report, byte for byte, that sleepscan printed when it measured the study,
// then the extras its flags ask for:
//
//	sleepscan inspect [-org KEYWORD] [-csv FILE] [-metrics] FILE
//
// The monitor subcommand runs the measurement as a crash-tolerant service
// with durable WAL recovery and graceful signal drain:
//
//	sleepscan monitor [-blocks N] [-rounds N] [-shards N] [-seed N]
//	                  [-outages F] [-wal DIR] [-sync] [-o FILE]
//
// The serve subcommand runs the same campaign (same flags, campaign.go)
// behind the live HTTP query layer:
//
//	sleepscan serve [campaign flags] [-listen ADDR]
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/dsp"
	"sleepnet/internal/faults"
	"sleepnet/internal/geo"
	"sleepnet/internal/metrics"
	"sleepnet/internal/report"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// errUsage reports a bad command line, already explained on stderr.
var errUsage = errors.New("usage")

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = runServe(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "monitor":
		err = runMonitor(os.Args[2:])
	default:
		var out bytes.Buffer
		err = run(os.Args[1:], &out)
		fmt.Print(out.String())
	}
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "sleepscan:", err)
		os.Exit(1)
	}
}

// run measures the study args describe and writes its report to out; with
// "inspect" first, it reports a saved study instead.
func run(args []string, out *bytes.Buffer) error {
	if len(args) > 0 && args[0] == "inspect" {
		return runInspect(args[1:], out)
	}
	fs := flag.NewFlagSet("sleepscan", flag.ContinueOnError)
	blocks := fs.Int("blocks", 2000, "number of /24 blocks in the world")
	days := fs.Int("days", 14, "days of probing")
	seed := fs.Uint64("seed", 42, "seed")
	restarts := fs.Bool("restarts", true, "model 5.5h prober restarts")
	outages := fs.Float64("outages", 0.15, "base outage episodes per block-week (0 disables)")
	savePath := fs.String("o", "", "save the study to this file as it is measured (read by sleepscan inspect)")
	csvPath := fs.String("csv", "", "export per-block records as CSV to this file")
	loss := fs.Float64("loss", 0, "inject this probe loss probability")
	corrupt := fs.Float64("corrupt", 0, "inject this reply corruption probability")
	rateLimit := fs.Int("ratelimit", 0, "rate-limit probes per block per round (0 = off)")
	blackoutEvery := fs.Duration("blackout-every", 0, "vantage blackout period (with -blackout-for)")
	blackoutFor := fs.Duration("blackout-for", 0, "vantage blackout length (with -blackout-every)")
	skew := fs.Duration("skew", 0, "constant prober clock skew")
	drift := fs.Duration("drift", 0, "prober clock drift per day")
	retries := fs.Int("retries", 0, "retry attempts per probe for local send failures (0 = off)")
	resume := fs.Bool("resume", false, "resume the study in -o, measuring only the blocks it lacks")
	withMetrics := fs.Bool("metrics", false, "instrument the run and report its cost metrics")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *resume && *savePath == "" {
		fmt.Fprintln(os.Stderr, "sleepscan: -resume needs -o")
		return errUsage
	}

	w, err := world.Generate(world.Config{
		Blocks:              *blocks,
		Seed:                *seed,
		OutagesPerBlockWeek: *outages,
	})
	if err != nil {
		return err
	}
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
		CheckpointPath: *savePath,
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
	if err != nil {
		return err
	}
	//lint:allow nowallclock: CLI-only elapsed display; never written into datasets or reports
	elapsed := time.Since(t0)
	var snap metrics.Snapshot
	if reg != nil {
		snap = reg.Snapshot() // what the saved study's trailer holds
	}
	if *csvPath != "" {
		if err := writeCSV(st, *csvPath); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "sleepscan: %d blocks probed for %d days in %v\n",
		len(st.Measured()), *days, elapsed.Round(time.Millisecond))
	writeReport(out, st, snap)
	if reg != nil {
		fmt.Fprintln(out, "\nrun metrics:")
		fmt.Fprint(out, report.Metrics(snap))
	}
	if *savePath != "" {
		fmt.Fprintf(out, "study saved to %s (%d blocks)\n", *savePath, len(st.Blocks))
	}
	if *csvPath != "" {
		fmt.Fprintf(out, "CSV exported to %s\n", *csvPath)
	}
	return nil
}

// runInspect reads the study file args name and writes the report sleepscan
// wrote when it measured the study, then the extras the flags ask for.
func runInspect(args []string, out *bytes.Buffer) error {
	fs := flag.NewFlagSet("sleepscan inspect", flag.ContinueOnError)
	org := fs.String("org", "", "show blocks whose organization matches this keyword")
	csvPath := fs.String("csv", "", "re-export records as CSV to this file")
	showMetrics := fs.Bool("metrics", false, "print the full metrics snapshot saved with the study")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sleepscan inspect [flags] <study file>")
		fs.PrintDefaults()
		return errUsage
	}
	st, snap, err := analysis.LoadStudy(fs.Arg(0))
	if err != nil {
		return err
	}

	writeReport(out, st, snap)
	if *showMetrics {
		fmt.Fprintln(out, "\nrun metrics:")
		fmt.Fprint(out, report.Metrics(snap))
	}
	if *org != "" {
		orgQuery(out, st, *org)
	}
	if *csvPath != "" {
		if err := writeCSV(st, *csvPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "CSV exported to %s\n", *csvPath)
	}
	return nil
}

func orgQuery(out *bytes.Buffer, st *analysis.Study, keyword string) {
	kw := strings.ToLower(keyword)
	var n, strict int
	for _, b := range st.Measured() {
		if !strings.Contains(strings.ToLower(b.Info.OrgName), kw) {
			continue
		}
		n++
		if b.Class == core.StrictDiurnal {
			strict++
		}
	}
	if n == 0 {
		fmt.Fprintf(out, "\nno measured blocks match organization %q\n", keyword)
		return
	}
	fmt.Fprintf(out, "\norganization %q: %d blocks, %s strictly diurnal\n",
		keyword, n, report.Pct(float64(strict)/float64(n)))
}

// countryFloor is the fewest measured blocks a country needs for a row of
// the country, reliability and GDP tables (the paper's Tables 3/4 use 1000
// at full scale): one in 400 of the world's blocks, and at least 3.
func countryFloor(st *analysis.Study) int {
	return max(len(st.Blocks)/400, 3)
}

// writeReport writes the study report to out: what sleepscan prints after
// measuring a study and what sleepscan inspect prints after loading the
// saved file. It reads nothing but the study and snap, the run's metrics
// snapshot (empty for an uninstrumented run), so the two print the same
// bytes.
func writeReport(out *bytes.Buffer, st *analysis.Study, snap metrics.Snapshot) {
	sparse := 0
	for _, b := range st.Blocks {
		if b.Sparse {
			sparse++
		}
	}
	strict, either := st.DiurnalFraction()
	counts := st.CountByClass()
	floor := countryFloor(st)

	fmt.Fprintf(out, "study: %d blocks (%d measured, %d sparse, %d failed, %d quarantined), from %s, %d rounds\n",
		len(st.Blocks), len(st.Measured()), sparse, st.ErrorCount(), st.QuarantinedCount(),
		st.Cfg.Start.Format("2006-01-02"), st.Cfg.Rounds)
	fmt.Fprintf(out, "probing budget: %.1f probes/block/hour (paper budget: < 20)\n", st.ProbeBudget())
	if msg := st.FirstError(); msg != "" {
		fmt.Fprintf(out, "first measurement error: %s\n", msg)
	}
	fmt.Fprintln(out)
	// An inactive fault configuration attaches no injector, and an attached
	// one counts every probe.
	if ft := st.FaultTotals(); ft.Probes > 0 {
		failed, rt, se, rl := st.DegradationTotals()
		fmt.Fprintf(out, "fault injection: %s\n", ft)
		fmt.Fprintf(out, "degradation: failed rounds=%d retries=%d send errors=%d rate limited=%d\n", failed, rt, se, rl)
		fmt.Fprintf(out, "partial: %d blocks measured through gap-filled rounds\n\n", st.PartialCount())
	}
	fmt.Fprintf(out, "strictly diurnal: %d (%s)   relaxed: %d   non-diurnal: %d\n",
		counts[core.StrictDiurnal], report.Pct(strict),
		counts[core.RelaxedDiurnal], counts[core.NonDiurnal])
	fmt.Fprintf(out, "either diurnal: %s (paper: 11%% strict, 25%% either at full scale)\n\n", report.Pct(either))

	fmt.Fprintln(out, "where the Internet sleeps (fraction of diurnal blocks by region):")
	rows := [][]string{}
	for _, r := range st.RegionTable() {
		rows = append(rows, []string{r.Region, fmt.Sprint(r.Blocks), report.F(r.FracDiurnal)})
	}
	fmt.Fprint(out, report.Table([]string{"region", "blocks", "frac diurnal"}, rows))

	fmt.Fprintln(out, "\ntop countries:")
	rows = rows[:0]
	for i, r := range st.CountryTable(floor) {
		if i >= 15 {
			break
		}
		rows = append(rows, []string{r.Code, fmt.Sprint(r.Blocks), report.F(r.FracDiurnal), fmt.Sprintf("%.0f", r.GDP)})
	}
	fmt.Fprint(out, report.Table([]string{"country", "blocks", "frac diurnal", "GDP"}, rows))

	fmt.Fprintln(out, "\nlink types:")
	linkTable(out, st)

	db := geo.FromWorld(st.World, 0.93, st.World.Config.Seed)
	if res, err := st.CorrelateGDP(floor); err == nil {
		fmt.Fprintf(out, "\ndiurnalness vs GDP correlation: %.3f (paper: -0.526)\n", res.R)
	}
	if pl, err := st.PhaseVsLongitude(db, true); err == nil {
		fmt.Fprintf(out, "phase vs longitude correlation: %.3f (paper: 0.763 relaxed)\n", pl.R)
	}

	if st.World.Config.OutagesPerBlockWeek > 0 {
		fmt.Fprintln(out, "\nreliability (diurnal blocks excluded so sleep is not counted as outage):")
		rows = rows[:0]
		for i, r := range st.OutageTable(floor, true) {
			if i >= 10 {
				break
			}
			rows = append(rows, []string{
				r.Code, fmt.Sprint(r.Blocks), fmt.Sprintf("%.3f", r.EpisodesPerBlockWeek),
				r.Agg.NinesString(),
			})
		}
		fmt.Fprint(out, report.Table([]string{"country", "blocks", "outages/blk-week", "uptime"}, rows))
		if r, anova, err := st.OutageGDPCorrelation(floor); err == nil {
			fmt.Fprintf(out, "outage rate vs GDP correlation: %.3f (p = %.3g)\n", r, anova.P)
		}
	}

	if !snap.Empty() {
		fmt.Fprintln(out, "\nrun cost:")
		fmt.Fprint(out, report.RunCost(snap))
	}
}

// linkTable writes the measured blocks' strictly diurnal fraction and
// outage episodes per link type, most diurnal first.
func linkTable(out *bytes.Buffer, st *analysis.Study) {
	type agg struct{ n, strict, outages int }
	m := map[string]*agg{}
	for _, b := range st.Measured() {
		a := m[b.Info.LinkType]
		if a == nil {
			a = &agg{}
			m[b.Info.LinkType] = a
		}
		a.n++
		if b.Class == core.StrictDiurnal {
			a.strict++
		}
		a.outages += b.Outage.Episodes
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		fi := float64(m[keys[i]].strict) / float64(m[keys[i]].n)
		fj := float64(m[keys[j]].strict) / float64(m[keys[j]].n)
		//lint:allow floateq: exact tie-break inside a comparator; epsilon equality would break strict weak ordering
		if fi != fj {
			return fi > fj
		}
		return keys[i] < keys[j]
	})
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		a := m[k]
		rows = append(rows, []string{
			k, fmt.Sprint(a.n),
			report.F(float64(a.strict) / float64(a.n)),
			fmt.Sprint(a.outages),
		})
	}
	fmt.Fprint(out, report.Table([]string{"link", "blocks", "frac strict", "outage episodes"}, rows))
}

func writeCSV(st *analysis.Study, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteCSV(f); err != nil {
		_ = f.Close() // best effort: the write error is the one to surface
		return err
	}
	return f.Close()
}
