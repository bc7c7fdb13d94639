package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/faults"
	"sleepnet/internal/world"
)

// TestInspectCountsQuarantinedAsUnmeasured runs inspect over a study whose
// vantage point is down 20 minutes an hour — every block quarantined, as in
// sleepscan -blackout-every 1h -blackout-for 20m — and checks the headline
// says what sleepscan says: nothing measured.
func TestInspectCountsQuarantinedAsUnmeasured(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "study.jsonl")
	st, err := analysis.MeasureWorld(w, analysis.StudyConfig{
		Days:           2,
		Seed:           42,
		Faults:         faults.Config{BlackoutEvery: time.Hour, BlackoutFor: 20 * time.Minute},
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Measured()) != 0 || st.QuarantinedCount() != len(st.Blocks) {
		t.Fatalf("fixture: %d measured, %d of %d quarantined", len(st.Measured()), st.QuarantinedCount(), len(st.Blocks))
	}

	csvPath := filepath.Join(dir, "study.csv")
	var out bytes.Buffer
	if err := run([]string{"-by", "country", "-csv", csvPath, path}, &out); err != nil {
		t.Fatal(err)
	}
	want := "(0 measured, 0 sparse, 0 failed, " + strconv.Itoa(len(st.Blocks)) + " quarantined)"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
	var csv bytes.Buffer
	if err := st.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, csv.Bytes()) {
		t.Fatal("inspect -csv differs from the measured study's CSV")
	}

	if err := run([]string{"-by", "planet", path}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("unknown dimension: err = %v, want a usage error", err)
	}

	// Without its trailer the file is a run still to finish, not a study.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, &out); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("study without trailer: err = %v, want one naming -resume", err)
	}
}
