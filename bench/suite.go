package main

// suite.go — the whole benchmark as one command. Each workload runs in a
// process of its own (the binary re-executes itself), so peak_rss_mb is the
// workload's and one workload's garbage is not another's pause.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type suiteConfig struct {
	seed        uint64
	seconds     float64
	repeatCheck bool
	out         string
	spans       string
}

// runChild runs one workload once in a child process, passing its report
// through to standard output, and returns the row it printed.
func runChild(cfg suiteConfig, w workload, trace int) (*row, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", w.name,
		"--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
	}
	if trace == 1 && cfg.spans != "" {
		args = append(args, "--spans", cfg.spans+"."+w.name+".jsonl")
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
	}
	// The row is the second-to-last line; the result line is the last.
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s (trace %d): no result printed", w.name, trace)
	}
	var got struct {
		Row row `json:"row"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &got); err != nil {
		return nil, fmt.Errorf("%s (trace %d): reading the row: %w", w.name, trace, err)
	}
	return &got.Row, nil
}

// runSet runs every workload untraced then traced and returns the rows.
func runSet(cfg suiteConfig) ([]*row, error) {
	var rows []*row
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			r, err := runChild(cfg, w, trace)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
			fmt.Println()
		}
	}
	return rows, nil
}

func runSuite(cfg suiteConfig) error {
	first, err := runSet(cfg)
	if err != nil {
		return err
	}
	printShares(first)
	all := first
	var verdict error
	if cfg.repeatCheck {
		fmt.Println("== second set, for -repeat-check ==")
		second, err := runSet(cfg)
		if err != nil {
			return err
		}
		all = append(all, second...)
		verdict = compareSets(first, second)
	}
	if cfg.out != "" {
		if err := appendRows(cfg.out, all); err != nil {
			return err
		}
	}
	return verdict
}

// printShares prints, per workload, each layer's share of the traced drive:
// the table that says where a workload's time goes. A workload whose traced
// run has no drive layers (serve-mixed) has no rows and is left out.
func printShares(rows []*row) {
	fmt.Println("== layer shares of the traced drive (seconds-valued layer metrics / trace.drive_s) ==")
	for _, r := range rows {
		drive := r.Metrics["trace.drive_s"].Median
		var lines []string
		for _, d := range perLayer {
			if m := r.Metrics[d.Name]; driveLayer[d.Name] && m.Median > 0 && drive > 0 {
				lines = append(lines, fmt.Sprintf("  %-28s %8.3fs  %5.1f%%", d.Name, m.Median, 100*m.Median/drive))
			}
		}
		if r.Trace != 1 || len(lines) == 0 {
			continue
		}
		fmt.Printf("%s  (drive %.3fs, coverage %.3f, tracing overhead %+.3f)\n%s\n", r.Workload, drive,
			r.Metrics["trace.coverage_frac"].Median, r.Metrics["trace.overhead_frac"].Median, strings.Join(lines, "\n"))
	}
	fmt.Println()
}

// driveLayer names the seconds-valued metrics that are parts of a traced
// drive (and so have a share of it), as opposed to separate measurements.
var driveLayer = map[string]bool{
	"netsim.deliver_s": true, "netsim.truth_s": true, "trinocular.round_self_s": true,
	"core.estimator_s": true, "core.classify_s": true, "timeseries.clean_s": true,
	"monitor.probe_s": true, "monitor.wal_s": true, "monitor.snapshot_s": true, "serve.publish_s": true,
}

// compareSets is the repeatability acceptance: every end-to-end median of
// the second set within that metric's bound of the first, and every exact
// per-layer count identical.
func compareSets(first, second []*row) error {
	fmt.Println("== repeat check: second set against first ==")
	bad := 0
	for i, a := range first {
		b := second[i]
		if a.Trace == 0 {
			for _, d := range endToEnd {
				va, vb := a.Metrics[d.Name].Median, b.Metrics[d.Name].Median
				worse := vb/va - 1
				if d.Better == "higher" {
					worse = va/vb - 1
				}
				verdict := "ok"
				if worse > d.Bound {
					verdict = "OUTSIDE BOUND"
					bad++
				}
				fmt.Printf("  %-12s %-12s %12.6g -> %12.6g  ratio %.4f  bound %.0f%%  %s\n",
					a.Workload, d.Name, va, vb, vb/va, 100*d.Bound, verdict)
			}
			continue
		}
		for _, d := range perLayer {
			if !exactPerLayer[d.Name] {
				continue
			}
			va, vb := a.Metrics[d.Name].Median, b.Metrics[d.Name].Median
			if math.Float64bits(va) != math.Float64bits(vb) {
				fmt.Printf("  %-12s %-40s %v != %v  EXACT COUNT DIFFERS\n", a.Workload, d.Name, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("repeat check: %d metrics disagree between the two sets", bad)
	}
	fmt.Println("  every end-to-end median within its bound; every exact count identical")
	return nil
}

// appendRows appends the rows to a JSON-lines ledger.
func appendRows(path string, rows []*row) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	return f.Close()
}
