package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepnet/internal/monitor"
	"sleepnet/internal/serve"
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
		"-seed", "7", "-outages", "0.5"})
	hint := strings.Fields(ran.resumeHint())
	if len(hint) < 2 || hint[0] != "sleepscan" || hint[1] != "monitor" {
		t.Fatalf("hint %q is not a sleepscan monitor command", ran.resumeHint())
	}
	resumed := parse(hint[2:])

	if got, want := resumed.worldConfig(), ran.worldConfig(); got != want {
		t.Errorf("resumed world %+v, ran %+v", got, want)
	}
	got, stopGot, err := resumed.monitorConfig()
	if err != nil {
		t.Fatal(err)
	}
	defer stopGot()
	want, stopWant, err := ran.monitorConfig()
	if err != nil {
		t.Fatal(err)
	}
	defer stopWant()
	if got.Seed != want.Seed || !got.Start.Equal(want.Start) || got.Rounds != want.Rounds ||
		got.Shards != want.Shards || got.WALDir != want.WALDir {
		t.Errorf("resumed identity (seed %d, start %v, rounds %d, shards %d, wal %q), ran (%d, %v, %d, %d, %q)",
			got.Seed, got.Start, got.Rounds, got.Shards, got.WALDir,
			want.Seed, want.Start, want.Rounds, want.Shards, want.WALDir)
	}
}

// defaultArgs describe the default campaign on a small world.
var defaultArgs = []string{"-blocks", "20"}

// defaultCampaign parses defaultArgs and returns the campaign and the
// monitor configuration it describes.
func defaultCampaign(t *testing.T) (*campaign, monitor.Config) {
	t.Helper()
	fs := flag.NewFlagSet("sleepscan monitor", flag.ContinueOnError)
	c := campaignFlags(fs)
	if err := fs.Parse(defaultArgs); err != nil {
		t.Fatal(err)
	}
	cfg, stop, err := c.monitorConfig()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return c, cfg
}

// runToCompletion runs a campaign in process and fails unless it completes.
func runToCompletion(t *testing.T, cfg monitor.Config) *monitor.Result {
	t.Helper()
	m, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil || !res.Completed {
		t.Fatalf("campaign did not complete: %v (%+v)", err, res)
	}
	return res
}

// TestDefaultRoundsDecideAClass runs the campaign the default flags
// describe, on a small world, into a serve engine. A block has a class only
// once its series holds two whole UTC days, so the default -rounds must
// reach past that: the final epoch serves at least one decided class.
func TestDefaultRoundsDecideAClass(t *testing.T) {
	c, cfg := defaultCampaign(t)
	eng := serve.NewEngine(serve.EngineConfig{Metrics: c.reg})
	cfg.Sink = eng
	runToCompletion(t, cfg)
	sum, err := eng.Epoch().Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unknown == sum.Blocks {
		t.Fatalf("-rounds %d: every one of %d blocks is unknown at epoch %d", *c.rounds, sum.Blocks, sum.Epoch)
	}
	t.Logf("epoch %d: %d strict, %d relaxed, %d non-diurnal, %d unknown", sum.Epoch,
		sum.Strict, sum.Relaxed, sum.NonDiurnal, sum.Unknown)
}

// TestMonitorWritesTheStudy: sleepscan monitor -o writes, for the default
// campaign, a file that is valid JSON and is byte for byte the in-process
// Study.Encode of the same campaign.
func TestMonitorWritesTheStudy(t *testing.T) {
	out := filepath.Join(t.TempDir(), "study.json")
	if err := runMonitor(append([]string{"-o", out}, defaultArgs...)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(got) {
		t.Fatalf("-o wrote %d bytes that are not valid JSON", len(got))
	}
	_, cfg := defaultCampaign(t)
	st, err := runToCompletion(t, cfg).Study()
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-o wrote %d bytes, the in-process study encodes to %d other ones", len(got), len(want))
	}
}

// TestMonitorCampaign drives sleepscan monitor end to end over one -wal
// directory. A clean campaign completes and writes -o; a rerun over the
// same directory resumes from it to the same file. Then one byte flipped
// in the middle of a sealed segment sends that shard into a crash loop
// and quarantine, below the quorum that would fail the monitor: the
// command must still fail, name the shard, and write no study.
func TestMonitorCampaign(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal")
	campaign := func(out string) error {
		return runMonitor([]string{"-blocks", "80", "-rounds", "40", "-shards", "4", "-wal", wal, "-o", out})
	}

	a, resumed := filepath.Join(dir, "a.json"), filepath.Join(dir, "resumed.json")
	for _, out := range []string{a, resumed} {
		if err := campaign(out); err != nil {
			t.Fatal(err)
		}
	}
	first, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("the campaign resumed from its -wal wrote another study")
	}

	seg := filepath.Join(wal, "shard-0000", "seg-00000000.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.json")
	err = campaign(b)
	if err == nil {
		t.Fatal("a campaign with a quarantined shard succeeded")
	}
	if !strings.Contains(err.Error(), "quarantine") || !strings.Contains(err.Error(), "[0]") {
		t.Errorf("error %q does not name quarantined shard 0", err)
	}
	if _, serr := os.Stat(b); !os.IsNotExist(serr) {
		t.Errorf("an incomplete campaign wrote %s (stat: %v)", b, serr)
	}
}
