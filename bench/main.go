// Command bench is sleepnet's benchmark: four workloads that run what a
// user runs, a fixed set of end-to-end metrics on each, and a traced run per
// workload that times the calls into every layer's public functions from
// out here. README.md in this directory says what each workload, metric and
// bound is for; BENCHMARK.json at the repository root is the manifest an
// outside driver reads.
//
// One run of one workload (what the driver calls; the last line of standard
// output is the result as JSON):
//
//	go run ./bench --workload study-14d --seed 42 --seconds 20 --trace 0
//
// Everything at once, as a report:
//
//	go run ./bench [-seed 42] [-seconds 20] [-repeat-check] [-out rows.jsonl] [-spans prefix]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// scratchDir is where runs put the files they write: inside the checkout's
// build area, which .gitignore names.
const scratchDir = ".bench_build/tmp"

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		name        = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs the whole suite")
		seed        = flag.Uint64("seed", goldenSeed, "workload seed: the only input the workloads take")
		secs        = flag.Float64("seconds", 20, "measuring time of one run")
		trace       = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans       = flag.String("spans", "", "with -trace 1: write the run's spans to this file as JSON lines")
		repeatCheck = flag.Bool("repeat-check", false, "suite only: run everything twice and fail unless the two sets agree within the bounds")
		out         = flag.String("out", "", "suite only: append every result row to this file as JSON lines")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *secs < 1 || *secs > 60 {
		return fmt.Errorf("-seconds must be between 1 and 60, got %g", *secs)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if *name == "" {
		return runSuite(suiteConfig{seed: *seed, seconds: *secs, repeatCheck: *repeatCheck, out: *out, spans: *spans})
	}

	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	// The load shape is fixed at two processors whatever the host has.
	runtime.GOMAXPROCS(loadWorkers)
	e := env{seed: *seed, seconds: *secs, scratch: filepath.Join(scratchDir, fmt.Sprint("pid", os.Getpid())), spans: *spans}
	defer os.RemoveAll(e.scratch)

	run, defs := w.run, endToEnd
	if *trace != 0 {
		run, defs = w.trace, perLayer
	}
	t0 := nanos()
	res, err := run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res.Phases["total"] = secondsSince(t0)
	return report(os.Stdout, w, e, *trace, defs, res)
}

// row is one result with its provenance: what ran, where, for how long.
// The suite collects rows; -out appends them to a ledger.
type row struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	fingerprint
	Reps      int                  `json:"repetitions"`
	Phases    map[string]float64   `json:"phase_seconds"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]rowMetric `json:"metrics"`
}

type rowMetric struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// outcome is the contract's result line: exactly these four keys.
type outcome struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]outcomeMetric `json:"metrics"`
}

type outcomeMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run for people, then its row, then — last — the result
// line, unless an operation failed: then there is no result. A metric the workload did not measure is 0 on a traced run (the
// layer was never entered) and an error on an untraced one.
func report(dst io.Writer, w workload, e env, trace int, defs []metricDef, res *result) error {
	out := &bytes.Buffer{}
	if res.Attempted < 1 {
		return fmt.Errorf("%s: nothing was attempted", w.name)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed; the workloads are sized so that none does", w.name, res.Failed, res.Attempted)
	}
	r := row{
		Workload: w.name, Trace: trace, Seed: e.seed, Seconds: e.seconds,
		fingerprint: hostFingerprint(), Reps: res.Reps, Phases: res.Phases,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]rowMetric{},
	}
	o := outcome{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]outcomeMetric{}}
	fmt.Fprintf(out, "# %s  seed=%d  trace=%d  seconds=%g  repetitions=%d  attempted=%d  failed=%d\n",
		w.name, e.seed, trace, e.seconds, res.Reps, res.Attempted, res.Failed)
	for _, note := range res.Notes {
		fmt.Fprintf(out, "#   %s\n", note)
	}
	for _, d := range defs {
		q, ok := res.Values[d.Name]
		if !ok && trace == 0 {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.Name)
		}
		if trace == 0 && q.Median <= 0 {
			return fmt.Errorf("%s: end-to-end metric %s reads %g", w.name, d.Name, q.Median)
		}
		r.Metrics[d.Name] = rowMetric{Median: q.Median, Q1: q.Q1, Q3: q.Q3, N: q.N, Unit: d.Unit}
		o.Metrics[d.Name] = outcomeMetric{Value: q.Median, Unit: d.Unit}
		switch {
		case !ok:
		case q.N > 1:
			fmt.Fprintf(out, "%-42s %14.6g %-6s q1 %.6g  q3 %.6g  n %d\n", d.Name, q.Median, d.Unit, q.Q1, q.Q3, q.N)
		default:
			fmt.Fprintf(out, "%-42s %14.6g %s\n", d.Name, q.Median, d.Unit)
		}
	}
	for name := range res.Values {
		if _, listed := r.Metrics[name]; !listed {
			return fmt.Errorf("%s: measured %s, which the metric table does not list", w.name, name)
		}
	}
	phases := make([]string, 0, len(res.Phases))
	for p, s := range res.Phases {
		phases = append(phases, fmt.Sprintf("%s %.2fs", p, s))
	}
	sort.Strings(phases)
	fmt.Fprintf(out, "# phases: %s\n", strings.Join(phases, ", "))

	enc := json.NewEncoder(out)
	if err := enc.Encode(struct {
		Row row `json:"row"`
	}{r}); err != nil {
		return err
	}
	if err := enc.Encode(o); err != nil {
		return err
	}
	_, err := dst.Write(out.Bytes())
	return err
}
