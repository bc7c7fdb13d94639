package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sleepnet/internal/monitor"
)

func TestExplainWALError(t *testing.T) {
	if err := explainWALError(nil, "/w"); err != nil {
		t.Fatalf("nil became %v", err)
	}
	other := errors.New("disk on fire")
	if err := explainWALError(other, "/w"); err != other {
		t.Fatalf("unrelated error rewritten: %v", err)
	}

	mismatch := fmt.Errorf("monitor: meta /w/meta.json: %w", monitor.ErrMismatch)
	err := explainWALError(mismatch, "/w")
	if !errors.Is(err, monitor.ErrMismatch) {
		t.Fatalf("explained error lost its type: %v", err)
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 2 || lines[0] != mismatch.Error() {
		t.Fatalf("want the bare error plus one line, got %q", err.Error())
	}
	for _, want := range []string{"-wal /w", "different campaign", "older on-disk format", "fresh directory"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("explanation %q does not mention %q", lines[1], want)
		}
	}
}
