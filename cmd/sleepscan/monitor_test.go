package main

import (
	"errors"
	"flag"
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

// TestResumeHintNamesTheCampaign parses the drained monitor's resume hint
// back into a fresh flag set: it must describe the same world and the same
// WAL identity (seed, start, rounds, shards; the block set follows from the
// world) as the flags the campaign ran with, non-default -shards and
// -outages included.
func TestResumeHintNamesTheCampaign(t *testing.T) {
	parse := func(args []string) *campaign {
		fs := flag.NewFlagSet("sleepscan monitor", flag.ContinueOnError)
		c := campaignFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ran := parse([]string{"-wal", "/w", "-blocks", "60", "-rounds", "40", "-shards", "3",
		"-seed", "7", "-outages", "0.5", "-snapshot-every", "4"})
	hint := strings.Fields(ran.resumeHint())
	if len(hint) < 2 || hint[0] != "sleepscan" || hint[1] != "monitor" {
		t.Fatalf("hint %q is not a sleepscan monitor command", ran.resumeHint())
	}
	resumed := parse(hint[2:])

	if got, want := resumed.worldConfig(), ran.worldConfig(); got != want {
		t.Errorf("resumed world %+v, ran %+v", got, want)
	}
	got, stopGot := resumed.monitorConfig()
	defer stopGot()
	want, stopWant := ran.monitorConfig()
	defer stopWant()
	if got.Seed != want.Seed || !got.Start.Equal(want.Start) || got.Rounds != want.Rounds ||
		got.Shards != want.Shards || got.WALDir != want.WALDir {
		t.Errorf("resumed identity (seed %d, start %v, rounds %d, shards %d, wal %q), ran (%d, %v, %d, %d, %q)",
			got.Seed, got.Start, got.Rounds, got.Shards, got.WALDir,
			want.Seed, want.Start, want.Rounds, want.Shards, want.WALDir)
	}
}
