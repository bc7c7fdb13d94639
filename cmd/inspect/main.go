// Command inspect queries a saved study (written by sleepscan -o): headline
// summary, per-country and per-link breakdowns, organization queries, and
// CSV re-export. The headline counts use the same definitions sleepscan
// prints: sparse, failed and quarantined blocks are not measured.
//
// Usage:
//
//	inspect study.jsonl                 # summary
//	inspect -by country study.jsonl    # per-country table
//	inspect -by link study.jsonl       # per-link-type table
//	inspect -by region study.jsonl     # per-region table
//	inspect -org "china" study.jsonl   # blocks of one organization
//	inspect -csv out.csv study.jsonl   # re-export records
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/report"
)

// errUsage reports a bad command line, already explained on stderr.
var errUsage = errors.New("usage")

func main() {
	var out bytes.Buffer
	err := run(os.Args[1:], &out)
	fmt.Print(out.String())
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
}

// run writes inspect's report on the study args name to out.
func run(args []string, out *bytes.Buffer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	by := fs.String("by", "", "breakdown dimension: country, region, link")
	org := fs.String("org", "", "show blocks whose organization matches this keyword")
	csvPath := fs.String("csv", "", "re-export records as CSV to this file")
	showMetrics := fs.Bool("metrics", false, "print the full metrics snapshot saved with the study")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: inspect [flags] <study file>")
		fs.PrintDefaults()
		return errUsage
	}
	var key func(analysis.MeasuredBlock) string
	switch *by {
	case "":
	case "country":
		key = func(b analysis.MeasuredBlock) string { return b.Info.Country.Code }
	case "region":
		key = func(b analysis.MeasuredBlock) string { return b.Info.Country.Region }
	case "link":
		key = func(b analysis.MeasuredBlock) string { return b.Info.LinkType }
	default:
		fmt.Fprintf(os.Stderr, "inspect: unknown dimension %q\n", *by)
		return errUsage
	}
	st, snap, err := analysis.LoadStudy(fs.Arg(0))
	if err != nil {
		return err
	}

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
	fmt.Fprintf(out, "diurnal: %d strict (%s), %d relaxed, %d non-diurnal (either: %s)\n",
		counts[core.StrictDiurnal], report.Pct(strict), counts[core.RelaxedDiurnal],
		counts[core.NonDiurnal], report.Pct(either))

	if !snap.Empty() {
		fmt.Fprintln(out, "run cost:")
		fmt.Fprint(out, report.RunCost(snap))
	}
	if *showMetrics {
		fmt.Fprintln(out, "\nrun metrics:")
		fmt.Fprint(out, report.Metrics(snap))
	}
	if key != nil {
		breakdown(out, st, key)
	}
	if *org != "" {
		orgQuery(out, st, *org)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := st.WriteCSV(f); err != nil {
			_ = f.Close() // best effort: the write error is the one to surface
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "exported CSV to %s\n", *csvPath)
	}
	return nil
}

func breakdown(out *bytes.Buffer, st *analysis.Study, key func(analysis.MeasuredBlock) string) {
	type agg struct{ n, strict, outages int }
	m := map[string]*agg{}
	for _, b := range st.Measured() {
		a := m[key(b)]
		if a == nil {
			a = &agg{}
			m[key(b)] = a
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
	fmt.Fprintln(out)
	fmt.Fprint(out, report.Table([]string{"group", "blocks", "frac strict", "outage episodes"}, rows))
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
