// Command sleepscan runs the full measurement pipeline end to end — the
// equivalent of the paper's data-collection-plus-analysis chain: generate
// (or reuse) a synthetic world, probe every block adaptively for the given
// number of days, estimate availability, detect diurnal blocks, and print
// the study report: the population and its class counts, the probing
// budget, and the paper's study tables as cmd/experiments prints them
// (Tables 3 and 4, Figs 14, 16 and 17, and the outage table).
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
	"strings"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/dsp"
	"sleepnet/internal/faults"
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
	cfg := analysis.DefaultCampaign(*days, *seed^0x5ca9)
	if !*restarts {
		cfg.RestartInterval = 0
	}
	cfg.Faults = faults.Config{
		Seed:              *seed ^ 0xfa17,
		LossRate:          *loss,
		CorruptRate:       *corrupt,
		RateLimitPerRound: *rateLimit,
		BlackoutEvery:     *blackoutEvery,
		BlackoutFor:       *blackoutFor,
		ClockSkew:         *skew,
		ClockDriftPerDay:  *drift,
	}
	cfg.Retry = trinocular.RetryConfig{MaxAttempts: *retries}
	cfg.CheckpointPath, cfg.Resume = *savePath, *resume
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

// writeReport writes the study report to out: what sleepscan prints after
// measuring a study and what sleepscan inspect prints after loading the
// saved file. It reads nothing but the study and snap, the run's metrics
// snapshot (empty for an uninstrumented run), so the two print the same
// bytes. Past the study's own counts it prints the paper's study tables as
// the experiments registry renders them; one whose join fails on this study
// (too few countries, no diurnal blocks) is left out.
func writeReport(out *bytes.Buffer, st *analysis.Study, snap metrics.Snapshot) {
	sparse := 0
	for _, b := range st.Blocks {
		if b.Sparse {
			sparse++
		}
	}
	strict, either := st.DiurnalFraction()
	counts := st.CountByClass()

	fmt.Fprintf(out, "study: %d blocks (%d measured, %d sparse, %d failed, %d quarantined), from %s, %d rounds\n",
		len(st.Blocks), len(st.Measured()), sparse, st.ErrorCount(), st.QuarantinedCount(),
		st.Cfg.Start.Format("2006-01-02"), st.Cfg.Rounds)
	fmt.Fprintf(out, "probing budget: %.1f probes/block/hour\n", st.ProbeBudget())
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
	fmt.Fprintf(out, "either diurnal: %s\n", report.Pct(either))

	table4, _ := report.Table4(st)
	table3, _ := report.Table3(st)
	fmt.Fprintf(out, "\n%s\n%s", table4, table3)
	if text, _, err := report.Fig16(st); err == nil {
		fmt.Fprintf(out, "\n%s", text)
	}
	if text, _, _, err := report.Fig14(st); err == nil {
		fmt.Fprintf(out, "\n%s", text)
	}
	if text, _, err := report.Fig17(st); err == nil {
		fmt.Fprintf(out, "\n%s", text)
	}
	if text, _, _, err := report.Outages(st); err == nil {
		fmt.Fprintf(out, "\n%s", text)
	}

	if !snap.Empty() {
		fmt.Fprintln(out, "\nrun cost:")
		fmt.Fprint(out, report.RunCost(snap))
	}
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
