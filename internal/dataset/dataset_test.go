package dataset

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/metrics"
	"sleepnet/internal/world"
)

var (
	dsOnce  sync.Once
	dsStudy *analysis.Study
	dsErr   error
)

func testStudy(t *testing.T) *analysis.Study {
	t.Helper()
	dsOnce.Do(func() {
		var w *world.World
		w, dsErr = world.Generate(world.Config{Blocks: 250, Seed: 77, OutagesPerBlockWeek: 0.2})
		if dsErr != nil {
			return
		}
		dsStudy, dsErr = analysis.MeasureWorld(w, analysis.StudyConfig{Days: 7, Seed: 5})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsStudy
}

func TestRoundTripInMemory(t *testing.T) {
	st := testStudy(t)
	ds := FromStudy(st)
	if len(ds.Blocks) == 0 {
		t.Fatal("empty dataset")
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(ds.Blocks) {
		t.Fatalf("blocks: %d vs %d", len(got.Blocks), len(ds.Blocks))
	}
	for i := range ds.Blocks {
		if got.Blocks[i] != ds.Blocks[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, got.Blocks[i], ds.Blocks[i])
		}
	}
	if got.Seed != ds.Seed || got.Rounds != ds.Rounds {
		t.Fatal("metadata lost")
	}
}

func TestSaveLoadFile(t *testing.T) {
	st := testStudy(t)
	ds := FromStudy(st)
	path := filepath.Join(t.TempDir(), "study.sleepnet")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(ds.Blocks) {
		t.Fatal("load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a dataset at all"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("garbage: %v", err)
	}
	if _, err := Read(bytes.NewReader([]byte("SL"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("short: %v", err)
	}
	// Right magic, wrong version.
	bad := append([]byte("SLEEPNET"), 99)
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Fatalf("version: %v", err)
	}
	// Right header, corrupt body.
	ok := append([]byte("SLEEPNET"), 1)
	ok = append(ok, []byte("garbage body")...)
	if _, err := Read(bytes.NewReader(ok)); err == nil {
		t.Fatal("corrupt body should error")
	}
}

func TestExportCSV(t *testing.T) {
	st := testStudy(t)
	ds := FromStudy(st)
	var buf bytes.Buffer
	if err := ds.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(ds.Blocks)+1 {
		t.Fatalf("lines = %d, records = %d", len(lines), len(ds.Blocks))
	}
	if !strings.HasPrefix(lines[0], "block,country,region") {
		t.Fatalf("header = %q", lines[0])
	}
	// Spot-check a row parses back into the right number of fields.
	if got := strings.Count(lines[1], ","); got != len(csvHeader)-1 {
		t.Fatalf("row has %d commas, want %d", got, len(csvHeader)-1)
	}
}

func TestSummarizeMatchesStudy(t *testing.T) {
	st := testStudy(t)
	ds := FromStudy(st)
	sum := ds.Summarize()
	wantStrict, wantEither := st.DiurnalFraction()
	if sum.Measured != len(st.Measured()) {
		t.Fatalf("measured = %d, want %d", sum.Measured, len(st.Measured()))
	}
	if !near(sum.StrictFraction, wantStrict) || !near(sum.EitherFraction, wantEither) {
		t.Fatalf("fractions %v/%v vs study %v/%v",
			sum.StrictFraction, sum.EitherFraction, wantStrict, wantEither)
	}
	if sum.Strict+sum.Relaxed+sum.NonDiurnal != sum.Measured {
		t.Fatal("class counts inconsistent")
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestDiurnalClassRecovery(t *testing.T) {
	r := BlockRecord{Class: int(core.StrictDiurnal)}
	if r.DiurnalClass() != core.StrictDiurnal {
		t.Fatal("class recovery")
	}
}

func TestBlockString(t *testing.T) {
	if got := blockString(0x01091500); got != "1.9.21/24" {
		t.Fatalf("blockString = %q", got)
	}
}

// TestMetricsSnapshotRoundTrip pins that a run-cost snapshot attached to a
// dataset survives serialization, and that files written without one decode
// to an empty snapshot (the pre-snapshot format is version-compatible).
func TestMetricsSnapshotRoundTrip(t *testing.T) {
	st := testStudy(t)
	ds := FromStudy(st)

	reg := metrics.New()
	reg.Counter("trinocular.probes_sent").Add(12345)
	reg.Counter("analysis.blocks_measured").Add(250)
	reg.Histogram("supervisor.checkpoint_bytes", "bytes", metrics.ExpBuckets(1024, 4, 4)).Observe(2048)
	ds.Metrics = reg.Snapshot()

	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.Counter("trinocular.probes_sent") != 12345 {
		t.Fatalf("probes_sent = %d", got.Metrics.Counter("trinocular.probes_sent"))
	}
	wantJSON, gotJSON := new(bytes.Buffer), new(bytes.Buffer)
	if err := ds.Metrics.WriteJSON(wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.Metrics.WriteJSON(gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Fatalf("snapshot changed across round trip:\n%s\nvs\n%s", wantJSON, gotJSON)
	}

	// A dataset written without a snapshot reads back empty.
	plain := FromStudy(st)
	buf.Reset()
	if err := plain.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Metrics.Empty() {
		t.Fatal("expected empty snapshot on uninstrumented dataset")
	}
}
