// Command benchpair measures a change against a base revision the way the
// choosing-metrics guide (section 8) asks a performance claim to be
// measured: it exports the base revision and the working tree into a
// temporary directory each, builds the repository's benchmark (./bench) in
// both with -trimpath, runs the two binaries, each from its own export, in
// pairs with alternating order through
// the arguments bench/run.sh takes, and prints, per end-to-end metric of
// BENCHMARK.json, each side's median and quartiles, how many pairs the
// working tree won, whether that amounts to a gain, a regression beyond
// the metric's bound, or neither, and every pair's two values.
//
//	go run ./cmd/benchpair -workload truth-7d -base HEAD~1 -pairs 10
//
// Run it from the repository root. Both binaries run with tracing off; the
// per-layer numbers of a traced run come from `go run ./bench` itself.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"sleepnet/internal/stats"
)

// metricDef is one end_to_end entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one of the two builds under comparison.
type side struct {
	label, dir, bin string
	samples         map[string][]float64
}

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
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// run checks the command line against the benchmark's declaration, then
// measures the pairs and writes the verdicts to out.
func run(args []string, out *bytes.Buffer) error {
	flags := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	workload := flags.String("workload", "", "benchmark workload to run (required), e.g. truth-7d")
	base := flags.String("base", "HEAD", "revision the working tree is compared against")
	pairs := flags.Int("pairs", 10, "pairs of runs")
	seed := flags.Uint64("seed", 42, "workload seed, the same for every run")
	seconds := flags.Float64("seconds", 20, "measuring time of one run")
	if err := flags.Parse(args); err != nil {
		return errUsage
	}
	if *workload == "" || *pairs <= 0 || flags.NArg() > 0 {
		flags.Usage()
		return errUsage
	}
	metrics, workloads, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	if !slices.Contains(workloads, *workload) {
		return fmt.Errorf("unknown workload %q: BENCHMARK.json declares %s", *workload, strings.Join(workloads, ", "))
	}

	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	baseDir := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseDir, 0o755); err != nil {
		return err
	}
	// An export, not a worktree: nothing to unregister from .git afterwards.
	export := fmt.Sprintf("git archive --format=tar %q | tar -x -C %q", *base, baseDir)
	if msg, err := exec.Command("sh", "-c", export).CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s: %v\n%s", *base, err, msg)
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	// The working tree is copied as it stands, uncommitted and untracked
	// files included, so both sides build and run from a fresh directory.
	headDir := filepath.Join(tmp, "head")
	if err := exportTree(wd, headDir, tmp); err != nil {
		return fmt.Errorf("exporting the working tree: %w", err)
	}
	sides := []*side{
		{label: "base " + *base, dir: baseDir, bin: filepath.Join(tmp, "bench-base")},
		{label: "working tree", dir: headDir, bin: filepath.Join(tmp, "bench-head")},
	}
	for _, s := range sides {
		s.samples = make(map[string][]float64)
		// -trimpath keeps the checkout's directory out of the binary, so the
		// two sides differ only by their source.
		build := exec.Command("go", "build", "-trimpath", "-buildvcs=false", "-o", s.bin, "./bench")
		build.Dir = s.dir
		if msg, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building ./bench of %s: %v\n%s", s.label, err, msg)
		}
	}

	benchArgs := []string{"--workload", *workload, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0"}
	for p := 0; p < *pairs; p++ {
		order := []*side{sides[p%2], sides[1-p%2]}
		for _, s := range order {
			got, err := runOnce(s, benchArgs)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, s.label, err)
			}
			for _, m := range metrics {
				v, ok := got[m.Name]
				if !ok {
					return fmt.Errorf("pair %d, %s: no %s in the result line", p+1, s.label, m.Name)
				}
				s.samples[m.Name] = append(s.samples[m.Name], v)
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", p+1, *pairs)
	}

	fmt.Fprintf(out, "%s, seed %d, %g s a run, %d alternating pairs; median [q1, q3]\n", *workload, *seed, *seconds, *pairs)
	for _, m := range metrics {
		report(out, m, sides[0], sides[1])
	}
	return nil
}

// exportTree copies the tree at src to dst, leaving out the repository's
// .git and the benchmark's .bench_build at the top, and skip (the export's
// own temporary directory, should it lie inside src). Files keep their
// permission bits and symbolic links are copied as links.
func exportTree(src, dst, skip string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if rel == ".git" || rel == ".bench_build" || path == skip {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		to := filepath.Join(dst, rel)
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch {
		case d.IsDir():
			return os.MkdirAll(to, info.Mode().Perm()|0o700)
		case d.Type()&fs.ModeSymlink != 0:
			target, err := os.Readlink(path)
			if err != nil {
				return err
			}
			return os.Symlink(target, to)
		case d.Type().IsRegular():
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(to, data, info.Mode().Perm())
		}
		return nil // sockets, pipes, devices: nothing a build reads
	})
}

// readBenchmark reads from the benchmark's declaration the metrics a claim
// may rest on and the names of the workloads.
func readBenchmark(path string) ([]metricDef, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	names := make([]string, len(decl.Workloads))
	for i, w := range decl.Workloads {
		names[i] = w.Name
	}
	return decl.EndToEnd, names, nil
}

// runOnce runs one side's binary from its own checkout and returns the
// metrics of the result line, the last line the benchmark prints.
func runOnce(s *side, args []string) (map[string]float64, error) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("the run's output checks failed")
	}
	got := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		got[name] = m.Value
	}
	return got, nil
}

// report prints one metric's row for each side and the verdict of section 8
// — a gain needs nine tenths of the pairs and medians further apart than the
// base's own quartiles; a regression is a median worse by more than the
// metric's bound — and then every pair's two values in run order, the
// record a claim keeps. Pairs alternate which side runs first, the base
// in the first pair.
func report(out *bytes.Buffer, m metricDef, base, head *side) {
	b, h := base.samples[m.Name], head.samples[m.Name]
	sign := 1.0 // positive delta = better
	if m.Better == "lower" {
		sign = -1
	}
	wins, losses := 0, 0
	for i := range b {
		switch d := sign * (h[i] - b[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	bq, hq := quartiles(b), quartiles(h)
	gain := sign * (hq[1] - bq[1])
	verdict := "no claim either way"
	switch {
	case 10*wins >= 9*len(b) && gain > bq[2]-bq[0]:
		verdict = "gain"
	case -gain > m.Bound*bq[1]:
		verdict = fmt.Sprintf("REGRESSION beyond the %.0f%% bound", 100*m.Bound)
	case 10*losses >= 9*len(b):
		verdict = "worse, within the bound"
	}
	fmt.Fprintf(out, "%-12s %-14s %10.4f [%.4f, %.4f] %s\n", m.Name, "base", bq[1], bq[0], bq[2], m.Unit)
	fmt.Fprintf(out, "%-12s %-14s %10.4f [%.4f, %.4f] %s  %+.1f%%, working tree won %d lost %d of %d: %s\n",
		"", "working tree", hq[1], hq[0], hq[2], m.Unit, 100*(hq[1]-bq[1])/bq[1], wins, losses, len(b), verdict)
	for i := range b {
		first := "base"
		if i%2 == 1 {
			first = "working tree"
		}
		fmt.Fprintf(out, "%-12s pair %2d, %-12s first: base %.4f, working tree %.4f %s  %+.1f%%\n",
			"", i+1, first, b[i], h[i], m.Unit, 100*(h[i]-b[i])/b[i])
	}
}

// quartiles returns {q1, median, q3}.
func quartiles(x []float64) [3]float64 {
	return [3]float64{stats.Quantile(x, 0.25), stats.Quantile(x, 0.5), stats.Quantile(x, 0.75)}
}
