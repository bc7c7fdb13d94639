package main

import (
	"bytes"
	"errors"
	"os"
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
