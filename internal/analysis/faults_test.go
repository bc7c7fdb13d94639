package analysis

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepnet/internal/faults"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// blockJSON renders a measured block for comparison; JSON is used so the
// NaN-bearing outage summaries compare equal (NaN encodes as null).
func blockJSON(t *testing.T, mb MeasuredBlock) string {
	t.Helper()
	data, err := json.Marshal(mb)
	if err != nil {
		t.Fatalf("marshal block: %v", err)
	}
	return string(data)
}

// TestMeasureWorldCheckpointResume simulates a killed study: a complete
// checkpoint file is truncated to a prefix plus a torn trailing line, and the
// resumed run must reproduce the uninterrupted study exactly.
func TestMeasureWorldCheckpointResume(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 50, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	base := StudyConfig{
		Days: 3,
		Seed: 77,
		Faults: faults.Config{
			Seed:              77 ^ 0xfa17,
			LossRate:          0.01,
			RateLimitPerRound: 12,
		},
		Retry: trinocular.RetryConfig{MaxAttempts: 2},
	}

	want, err := MeasureWorld(w, base)
	if err != nil {
		t.Fatal(err)
	}

	// A full checkpointed run must not change the results.
	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	full := base
	full.CheckpointPath = ckpt
	st, err := MeasureWorld(w, full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Blocks {
		if blockJSON(t, st.Blocks[i]) != blockJSON(t, want.Blocks[i]) {
			t.Fatalf("block %d: checkpointing changed the measurement", i)
		}
	}

	// Kill simulation: keep the header and the first 20 block lines, then a
	// torn partial line as a kill mid-write would leave.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1+len(w.Blocks) {
		t.Fatalf("checkpoint has %d lines, want %d", len(lines), 1+len(w.Blocks))
	}
	truncated := strings.Join(lines[:21], "\n") + "\n" + lines[21][:len(lines[21])/2]
	if err := os.WriteFile(ckpt, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := full
	resumed.Resume = true
	got, err := MeasureWorld(w, resumed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Blocks {
		if g, w := blockJSON(t, got.Blocks[i]), blockJSON(t, want.Blocks[i]); g != w {
			t.Fatalf("block %d: resumed run diverged:\n got %s\nwant %s", i, g, w)
		}
	}

	// The rewritten file holds the full study again, with no torn remnant.
	data, err = os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1+len(w.Blocks) {
		t.Fatalf("post-resume checkpoint has %d lines, want %d", len(lines), 1+len(w.Blocks))
	}

	t.Run("torn mid-file is rejected", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.ckpt")
		content := lines[0] + "\n" + lines[1][:len(lines[1])/2] + "\n" + lines[2] + "\n"
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := resumed
		cfg.CheckpointPath = bad
		if _, err := MeasureWorld(w, cfg); err == nil {
			t.Fatal("resume accepted a checkpoint with a torn line mid-file")
		}
	})

	t.Run("mismatched campaign is rejected", func(t *testing.T) {
		cfg := resumed
		cfg.Seed = 78 // different campaign, same file
		if _, err := MeasureWorld(w, cfg); err == nil {
			t.Fatal("resume accepted a checkpoint from a different campaign")
		}
	})

	t.Run("missing file starts fresh", func(t *testing.T) {
		cfg := resumed
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing.ckpt")
		st, err := MeasureWorld(w, cfg)
		if err != nil {
			t.Fatalf("missing checkpoint should start fresh: %v", err)
		}
		if blockJSON(t, st.Blocks[0]) != blockJSON(t, want.Blocks[0]) {
			t.Fatal("fresh run with missing checkpoint diverged")
		}
	})
}

// TestLossResilienceWithinTwoPoints is the PR's acceptance criterion: on a
// 500-block world with 2% injected probe loss and retries enabled, strict and
// either agreement with survey ground truth stay within two percentage points
// of the fault-free run.
func TestLossResilienceWithinTwoPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute sweep; run without -short")
	}
	points, err := FaultSweep(FaultSweepConfig{
		Blocks:     500,
		Days:       7,
		Seed:       42,
		LossRates:  []float64{0.02},
		RateLimits: []int{},
		Retry:      trinocular.RetryConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d sweep points, want baseline + loss", len(points))
	}
	base, lossy := points[0], points[1]
	if base.Label != "fault-free" || lossy.Label != "loss=2%" {
		t.Fatalf("unexpected labels %q, %q", base.Label, lossy.Label)
	}
	if base.Compared < 300 || lossy.Compared < 300 {
		t.Fatalf("too few compared blocks: %d, %d", base.Compared, lossy.Compared)
	}
	if lossy.Faults.Dropped == 0 {
		t.Fatal("loss run dropped no probes; injector not active")
	}
	if d := math.Abs(lossy.StrictAgree - base.StrictAgree); d > 0.02 {
		t.Fatalf("strict agreement degraded %.1fpp under 2%% loss (%.3f vs %.3f)",
			d*100, lossy.StrictAgree, base.StrictAgree)
	}
	if d := math.Abs(lossy.EitherAgree - base.EitherAgree); d > 0.02 {
		t.Fatalf("either agreement degraded %.1fpp under 2%% loss (%.3f vs %.3f)",
			d*100, lossy.EitherAgree, base.EitherAgree)
	}
	t.Logf("strict: %.3f -> %.3f, either: %.3f -> %.3f",
		base.StrictAgree, lossy.StrictAgree, base.EitherAgree, lossy.EitherAgree)
}
