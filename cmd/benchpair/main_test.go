package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadArgsBeforeBuilding checks that a bad command line fails
// before benchpair exports the base revision or builds anything: with no
// git and no go on the PATH, the errors must still be the argument errors.
func TestRejectsBadArgsBeforeBuilding(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil { // BENCHMARK.json is read from the repository root
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	t.Setenv("PATH", t.TempDir())

	var out bytes.Buffer
	err = run([]string{"-workload", "nosuch"}, &out)
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("-workload nosuch: err = %v, want the declared workloads", err)
	}
	for _, w := range []string{"study-14d", "truth-7d", "monitor-wal", "serve-mixed"} {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("-workload nosuch: %q does not name %s", err, w)
		}
	}

	if err := run([]string{"-workload", "truth-7d", "-pairs", "0"}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("-pairs 0: err = %v, want a usage error", err)
	}
}

// TestReportVerdictsAndPairs pins report's rows over fixed samples: the
// medians and quartiles, each verdict — gain, worse within the bound,
// regression beyond it, no claim — and every pair's two values in run
// order, the base running first in odd pairs.
func TestReportVerdictsAndPairs(t *testing.T) {
	base := &side{samples: map[string][]float64{
		"gain_s":  {10, 11, 12, 13},
		"worse_s": {10, 10, 10, 10},
		"regr_mb": {10, 10, 10, 10},
		"none_qs": {10, 11, 12, 13},
	}}
	head := &side{samples: map[string][]float64{
		"gain_s":  {8, 8.5, 9, 9.5},
		"worse_s": {10.5, 10.5, 10.5, 10.5},
		"regr_mb": {13, 13, 13, 13},
		"none_qs": {10.5, 10.5, 12.5, 12.5},
	}}
	var out bytes.Buffer
	for _, m := range []metricDef{
		{Name: "gain_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "worse_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "regr_mb", Unit: "MB", Better: "lower", Bound: 0.25},
		{Name: "none_qs", Unit: "1/s", Better: "higher", Bound: 0.25},
	} {
		report(&out, m, base, head)
	}
	want := `gain_s       base              11.5000 [10.7500, 12.2500] s
             working tree       8.7500 [8.3750, 9.1250] s  -23.9%, working tree won 4 lost 0 of 4: gain
             pair  1, base         first: base 10.0000, working tree 8.0000 s  -20.0%
             pair  2, working tree first: base 11.0000, working tree 8.5000 s  -22.7%
             pair  3, base         first: base 12.0000, working tree 9.0000 s  -25.0%
             pair  4, working tree first: base 13.0000, working tree 9.5000 s  -26.9%
worse_s      base              10.0000 [10.0000, 10.0000] s
             working tree      10.5000 [10.5000, 10.5000] s  +5.0%, working tree won 0 lost 4 of 4: worse, within the bound
             pair  1, base         first: base 10.0000, working tree 10.5000 s  +5.0%
             pair  2, working tree first: base 10.0000, working tree 10.5000 s  +5.0%
             pair  3, base         first: base 10.0000, working tree 10.5000 s  +5.0%
             pair  4, working tree first: base 10.0000, working tree 10.5000 s  +5.0%
regr_mb      base              10.0000 [10.0000, 10.0000] MB
             working tree      13.0000 [13.0000, 13.0000] MB  +30.0%, working tree won 0 lost 4 of 4: REGRESSION beyond the 25% bound
             pair  1, base         first: base 10.0000, working tree 13.0000 MB  +30.0%
             pair  2, working tree first: base 10.0000, working tree 13.0000 MB  +30.0%
             pair  3, base         first: base 10.0000, working tree 13.0000 MB  +30.0%
             pair  4, working tree first: base 10.0000, working tree 13.0000 MB  +30.0%
none_qs      base              11.5000 [10.7500, 12.2500] 1/s
             working tree      11.5000 [10.5000, 12.5000] 1/s  +0.0%, working tree won 2 lost 2 of 4: no claim either way
             pair  1, base         first: base 10.0000, working tree 10.5000 1/s  +5.0%
             pair  2, working tree first: base 11.0000, working tree 10.5000 1/s  -4.5%
             pair  3, base         first: base 12.0000, working tree 12.5000 1/s  +4.2%
             pair  4, working tree first: base 13.0000, working tree 12.5000 1/s  -3.8%
`
	if got := out.String(); got != want {
		t.Errorf("report printed\n%s\nwant\n%s", got, want)
	}
}

// TestExportTreeCopiesTheWorkingTree pins what the working tree's side
// builds from: every file as it stands, untracked and executable ones
// included, without the top-level .git and .bench_build and without the
// export's own directory when it lies inside the tree.
func TestExportTreeCopiesTheWorkingTree(t *testing.T) {
	src := t.TempDir()
	write := func(rel, body string, mode os.FileMode) {
		path := filepath.Join(src, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), mode); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module x\n", 0o644)
	write("bench/run.sh", "#!/bin/sh\n", 0o755)
	write("internal/p/untracked.go", "package p\n", 0o644)
	write(".git/HEAD", "ref: refs/heads/main\n", 0o644)
	write(".bench_build/bench", "binary", 0o755)
	write("tmp/skip/stale", "left by an earlier export", 0o644)
	write("cmd/.git", "not the top-level .git", 0o644)
	if err := os.Symlink("bench/run.sh", filepath.Join(src, "run")); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(t.TempDir(), "head")
	if err := exportTree(src, dst, filepath.Join(src, "tmp", "skip")); err != nil {
		t.Fatal(err)
	}
	for rel, body := range map[string]string{
		"go.mod":                  "module x\n",
		"bench/run.sh":            "#!/bin/sh\n",
		"internal/p/untracked.go": "package p\n",
		"cmd/.git":                "not the top-level .git",
		"run":                     "#!/bin/sh\n",
	} {
		got, err := os.ReadFile(filepath.Join(dst, rel))
		if err != nil || string(got) != body {
			t.Errorf("%s: %q, %v; want %q", rel, got, err, body)
		}
	}
	if info, err := os.Stat(filepath.Join(dst, "bench/run.sh")); err != nil || info.Mode().Perm() != 0o755 {
		t.Errorf("bench/run.sh lost its mode: %v, %v", info, err)
	}
	if target, err := os.Readlink(filepath.Join(dst, "run")); err != nil || target != "bench/run.sh" {
		t.Errorf("run: link %q, %v; want a link to bench/run.sh", target, err)
	}
	for _, rel := range []string{".git", ".bench_build", "tmp/skip"} {
		if _, err := os.Lstat(filepath.Join(dst, rel)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s was exported (err %v)", rel, err)
		}
	}
}
