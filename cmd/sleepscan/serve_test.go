package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"sleepnet/internal/monitor"
)

func TestServeRefusesUnknownFlag(t *testing.T) {
	if err := runServe([]string{"-no-such-flag"}); !errors.Is(err, errUsage) {
		t.Fatalf("runServe with an unknown flag = %v, want errUsage", err)
	}
}

// TestServeRefusesForeignWAL: a -wal directory another campaign wrote is
// refused with the operator's explanation before the listener opens. The
// listen address is one no listener can take, so an error from the listen
// would show that serve reached it first.
func TestServeRefusesForeignWAL(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal")
	args := func(seed string) []string {
		return []string{"-blocks", "40", "-rounds", "6", "-shards", "2", "-seed", seed, "-wal", wal}
	}
	if err := runMonitor(args("1")); err != nil {
		t.Fatal(err)
	}
	err := runServe(append(args("2"), "-listen", "127.0.0.1:-1"))
	if !errors.Is(err, monitor.ErrMismatch) {
		t.Fatalf("runServe over another seed's -wal = %v, want ErrMismatch", err)
	}
	if !strings.Contains(err.Error(), "-wal "+wal) || !strings.Contains(err.Error(), "fresh directory") {
		t.Errorf("error %q lacks the -wal explanation", err)
	}
}
