// Command benchpair measures a change against a base revision the way the
// choosing-metrics guide (section 8) asks a performance claim to be
// measured: it exports the base revision into a temporary directory, builds
// the repository's benchmark (./bench) there and in the working tree, runs
// the two binaries in pairs with alternating order through the arguments
// bench/run.sh takes, and prints, per end-to-end metric of BENCHMARK.json,
// each side's median and quartiles, how many pairs the working tree won, and
// whether that amounts to a gain, a regression beyond the metric's bound, or
// neither.
//
//	go run ./cmd/benchpair -workload truth-7d -base HEAD~1 -pairs 10
//
// Run it from the repository root. Both binaries run with tracing off; the
// per-layer numbers of a traced run come from `go run ./bench` itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

func main() {
	workload := flag.String("workload", "", "benchmark workload to run (required), e.g. truth-7d")
	base := flag.String("base", "HEAD", "revision the working tree is compared against")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seed := flag.Uint64("seed", 42, "workload seed, the same for every run")
	seconds := flag.Float64("seconds", 20, "measuring time of one run")
	flag.Parse()
	if *workload == "" || *pairs <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *base, *pairs, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(workload, base string, pairs int, seed uint64, seconds float64) error {
	metrics, err := endToEndMetrics("BENCHMARK.json")
	if err != nil {
		return err
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
	export := fmt.Sprintf("git archive --format=tar %q | tar -x -C %q", base, baseDir)
	if out, err := exec.Command("sh", "-c", export).CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s: %v\n%s", base, err, out)
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	sides := []*side{
		{label: "base " + base, dir: baseDir, bin: filepath.Join(tmp, "bench-base")},
		{label: "working tree", dir: wd, bin: filepath.Join(tmp, "bench-head")},
	}
	for _, s := range sides {
		s.samples = make(map[string][]float64)
		build := exec.Command("go", "build", "-buildvcs=false", "-o", s.bin, "./bench")
		build.Dir = s.dir
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building ./bench of %s: %v\n%s", s.label, err, out)
		}
	}

	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
	for p := 0; p < pairs; p++ {
		order := []*side{sides[p%2], sides[1-p%2]}
		for _, s := range order {
			got, err := runOnce(s, args)
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
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", p+1, pairs)
	}

	fmt.Printf("%s, seed %d, %g s a run, %d alternating pairs; median [q1, q3]\n", workload, seed, seconds, pairs)
	for _, m := range metrics {
		report(m, sides[0], sides[1])
	}
	return nil
}

// endToEndMetrics reads the metrics a claim may rest on from the benchmark's
// declaration.
func endToEndMetrics(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return decl.EndToEnd, nil
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

// report prints one metric's row for each side and the verdict of section 8:
// a gain needs nine tenths of the pairs and medians further apart than the
// base's own quartiles; a regression is a median worse by more than the
// metric's bound.
func report(m metricDef, base, head *side) {
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
	fmt.Printf("%-12s %-14s %10.4f [%.4f, %.4f] %s\n", m.Name, "base", bq[1], bq[0], bq[2], m.Unit)
	fmt.Printf("%-12s %-14s %10.4f [%.4f, %.4f] %s  %+.1f%%, working tree won %d lost %d of %d: %s\n",
		"", "working tree", hq[1], hq[0], hq[2], m.Unit, 100*(hq[1]-bq[1])/bq[1], wins, losses, len(b), verdict)
}

// quartiles returns {q1, median, q3}.
func quartiles(x []float64) [3]float64 {
	return [3]float64{stats.Quantile(x, 0.25), stats.Quantile(x, 0.5), stats.Quantile(x, 0.75)}
}
