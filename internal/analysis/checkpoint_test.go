package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// savedStudy measures the world wc generates into a study file and returns
// the in-memory study with the file's path.
func savedStudy(t *testing.T, wc world.Config, sc StudyConfig) (*Study, string) {
	t.Helper()
	w, err := world.Generate(wc)
	if err != nil {
		t.Fatal(err)
	}
	sc.CheckpointPath = filepath.Join(t.TempDir(), "study.jsonl")
	st, err := MeasureWorld(w, sc)
	if err != nil {
		t.Fatal(err)
	}
	return st, sc.CheckpointPath
}

func snapshotJSON(t *testing.T, s metrics.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLoadStudyRoundTrip pins that a saved study loads back to the study
// MeasureWorld returned: the same world, pipeline configuration and block
// records, each block's Info restored from the regenerated world, and the
// metrics snapshot of an instrumented run.
func TestLoadStudyRoundTrip(t *testing.T) {
	wc := world.Config{Blocks: 50, Seed: 77, OutagesPerBlockWeek: 0.2}
	sc := StudyConfig{
		Days:            2,
		Seed:            5,
		RestartInterval: 5*time.Hour + 30*time.Minute,
		MissingRate:     0.03,
		DuplicateRate:   0.02,
		Faults:          faults.Config{Seed: 9, LossRate: 0.02, RateLimitPerRound: 8},
	}
	for _, name := range []string{"uninstrumented", "instrumented"} {
		instrumented := name == "instrumented"
		t.Run(name, func(t *testing.T) {
			cfg := sc
			if instrumented {
				cfg.Metrics = metrics.New()
			}
			want, path := savedStudy(t, wc, cfg)
			got, snap, err := LoadStudy(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.World.Config != want.World.Config || len(got.Blocks) != len(want.Blocks) {
				t.Fatalf("world %+v with %d blocks, want %+v with %d", got.World.Config, len(got.Blocks), want.World.Config, len(want.Blocks))
			}
			wantCfg := want.Cfg
			wantCfg.Metrics, wantCfg.Prober.Metrics = nil, nil
			if got.Cfg != wantCfg {
				t.Fatalf("pipeline config %+v, want %+v", got.Cfg, wantCfg)
			}
			for i := range want.Blocks {
				if g, w := blockJSON(t, got.Blocks[i]), blockJSON(t, want.Blocks[i]); g != w {
					t.Fatalf("block %d:\n got %s\nwant %s", i, g, w)
				}
				if g, w := *got.Blocks[i].Info, *want.Blocks[i].Info; g.ID != w.ID || g.Country.Code != w.Country.Code || g.OrgName != w.OrgName || !g.AllocDate.Equal(w.AllocDate) {
					t.Fatalf("block %d info %+v, want %+v", i, g, w)
				}
			}
			if !instrumented {
				if !snap.Empty() {
					t.Fatalf("uninstrumented run saved a snapshot: %+v", snap)
				}
				return
			}
			if snap.Counter("trinocular.probes_sent") == 0 {
				t.Fatal("instrumented run saved no probe count")
			}
			if g, w := snapshotJSON(t, snap), snapshotJSON(t, cfg.Metrics.Snapshot()); g != w {
				t.Fatalf("snapshot changed across the round trip:\n%s\nvs\n%s", g, w)
			}
		})
	}
}

// TestLoadStudyCountsMatchStudy is the report sleepscan inspect prints:
// measured, strict and either counts of a loaded study are the in-memory
// study's, with quarantined blocks (a 15-minute blackout an hour fails more
// than a quarter of the rounds) and partial ones (14 minutes an hour) alike.
func TestLoadStudyCountsMatchStudy(t *testing.T) {
	for _, c := range []struct {
		name        string
		blackout    time.Duration
		quarantined bool
	}{
		{"quarantined", 15 * time.Minute, true},
		{"partial", 14 * time.Minute, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, path := savedStudy(t, world.Config{Blocks: 50, Seed: 3}, StudyConfig{
				Days:   2,
				Seed:   3,
				Faults: faults.Config{BlackoutEvery: time.Hour, BlackoutFor: c.blackout},
			})
			if got := want.QuarantinedCount() > 0; got != c.quarantined {
				t.Fatalf("fixture: %d of %d blocks quarantined", want.QuarantinedCount(), len(want.Blocks))
			}
			got, _, err := LoadStudy(path)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := len(got.Measured()), len(want.Measured()); g != w {
				t.Fatalf("measured = %d, want %d", g, w)
			}
			if g, w := got.QuarantinedCount(), want.QuarantinedCount(); g != w {
				t.Fatalf("quarantined = %d, want %d", g, w)
			}
			gc, wc := got.CountByClass(), want.CountByClass()
			for _, class := range []core.DiurnalClass{core.StrictDiurnal, core.RelaxedDiurnal, core.NonDiurnal} {
				if gc[class] != wc[class] {
					t.Fatalf("%v = %d, want %d", class, gc[class], wc[class])
				}
			}
			gs, ge := got.DiurnalFraction()
			ws, we := want.DiurnalFraction()
			if gs != ws || ge != we {
				t.Fatalf("fractions %v/%v, want %v/%v", gs, ge, ws, we)
			}
		})
	}
}

// TestLoadStudyRefuses covers the files LoadStudy must not turn into a
// study: a run without its trailer, which it names with the blocks it holds,
// and files that are not complete studies at all.
func TestLoadStudyRefuses(t *testing.T) {
	_, path := savedStudy(t, world.Config{Blocks: 50, Seed: 77}, StudyConfig{Days: 2, Seed: 1})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // the empty string after the final newline
	var header map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	header["version"] = 1
	oldHeader, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	blocks := len(lines) - 2
	for _, c := range []struct {
		name, content, want string
	}{
		{"no trailer", strings.Join(lines[:len(lines)-1], ""), "holds " + strconv.Itoa(blocks) + " of " + strconv.Itoa(blocks) + " blocks"},
		{"torn trailer", strings.Join(lines[:len(lines)-1], "") + lines[len(lines)-1][:10], "holds " + strconv.Itoa(blocks) + " of"},
		{"killed early", strings.Join(lines[:11], "") + lines[11][:20], "holds 10 of " + strconv.Itoa(blocks) + " blocks"},
		{"trailer without blocks", lines[0] + lines[len(lines)-1], "only 0 of"},
		{"line after trailer", string(data) + lines[1], "follows the trailer"},
		{"older format", string(oldHeader) + "\n" + strings.Join(lines[1:], ""), "format version 1"},
		{"empty", "", "empty"},
		{"garbage", "not a study at all\n", "bad header"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "s.jsonl")
			if err := os.WriteFile(p, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := LoadStudy(p)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
	if _, _, err := LoadStudy(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestWriteCSV pins the export: a header and one row of 18 columns per
// block that did not fail, identical for a loaded study and the study that
// saved it.
func TestWriteCSV(t *testing.T) {
	want, path := savedStudy(t, world.Config{Blocks: 50, Seed: 77, OutagesPerBlockWeek: 0.2}, StudyConfig{Days: 2, Seed: 5})
	var buf bytes.Buffer
	if err := want.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if rows := len(want.Blocks) - want.ErrorCount(); len(lines) != rows+1 {
		t.Fatalf("lines = %d, want %d rows and a header", len(lines), rows)
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Fatalf("header = %q", lines[0])
	}
	if got := strings.Count(lines[1], ","); got != len(csvHeader)-1 {
		t.Fatalf("row has %d commas, want %d", got, len(csvHeader)-1)
	}
	if !strings.HasPrefix(lines[1], want.Blocks[0].Info.ID.String()+",") {
		t.Fatalf("first row %q does not start with block %s", lines[1], want.Blocks[0].Info.ID)
	}
	loaded, _, err := LoadStudy(path)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatal("the loaded study exports a different CSV")
	}
}

// TestLoadStudyKeepsClass pins that every block's diurnal class survives
// the save and load, on a study that has strict, relaxed and non-diurnal
// blocks, so a class lost to its zero value (NonDiurnal) cannot pass.
func TestLoadStudyKeepsClass(t *testing.T) {
	want, path := savedStudy(t, world.Config{Blocks: 50, Seed: 77}, StudyConfig{Days: 3, Seed: 5})
	counts := want.CountByClass()
	for _, class := range []core.DiurnalClass{core.StrictDiurnal, core.RelaxedDiurnal, core.NonDiurnal} {
		if counts[class] == 0 {
			t.Fatalf("fixture: no %v block in %v", class, counts)
		}
	}
	got, _, err := LoadStudy(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Blocks {
		if g, w := got.Blocks[i].Class, want.Blocks[i].Class; g != w {
			t.Fatalf("block %d (%s) class %v, want %v", i, want.Blocks[i].Info.ID, g, w)
		}
	}
}

// TestWriteCSVBlockColumn pins the first CSV column: a block is written in
// dotted /24 form.
func TestWriteCSVBlockColumn(t *testing.T) {
	st := &Study{Blocks: []MeasuredBlock{{Info: &world.BlockInfo{ID: 0x01091500, Country: &world.Country{}}}}}
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "1.9.21/24,") {
		t.Fatalf("CSV = %q, want a row starting with 1.9.21/24", buf.String())
	}
}

// TestLoadStudyReadsParentFormat reads a study saved before the fault
// model's RateLimitWindow and Epoch, the retry policy's BaseBackoff and the
// world's MeanLoss stopped being fields: its header carries the four keys
// that headers written today lack, the first three zero and MeanLoss at its
// old default, 0.01. sleepscan at commit d25480b wrote it:
//
//	sleepscan -blocks 20 -days 2 -loss 0.05 -retries 3 -o testdata/study_with_old_header.jsonl
//
// LoadStudy must read every block with its class, and a resume over a copy
// must take it for its own campaign and measure nothing.
func TestLoadStudyReadsParentFormat(t *testing.T) {
	const path = "testdata/study_with_old_header.jsonl"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(raw, []byte("\n"))
	for _, key := range []string{`"RateLimitWindow":0`, `"Epoch":"0001-01-01T00:00:00Z"`, `"BaseBackoff":0`, `"MeanLoss":0.01`} {
		if !bytes.Contains(header, []byte(key)) {
			t.Fatalf("fixture header lacks %s: %s", key, header)
		}
	}
	classes := make(map[int]core.DiurnalClass) // as the file's block lines hold them
	for _, line := range bytes.Split(raw, []byte("\n"))[1:] {
		var l studyCheckpointLine
		if len(line) > 0 && json.Unmarshal(line, &l) == nil && l.Block.Days > 0 {
			classes[l.Index] = l.Block.Class
		}
	}

	st, _, err := LoadStudy(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Blocks) != len(classes) || len(classes) < 20 {
		t.Fatalf("loaded %d blocks, the file holds %d", len(st.Blocks), len(classes))
	}
	seen := make(map[core.DiurnalClass]bool)
	for i, b := range st.Blocks {
		if b.Info == nil || b.Class != classes[i] {
			t.Fatalf("block %d loaded as class %v (info %v), the file says %v", i, b.Class, b.Info, classes[i])
		}
		seen[b.Class] = true
	}
	if len(seen) < 2 {
		t.Fatalf("fixture too tame: every block is class %v", st.Blocks[0].Class)
	}

	// The campaign sleepscan ran, as it builds it.
	copyPath := filepath.Join(t.TempDir(), "study.jsonl")
	if err := os.WriteFile(copyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	resumed, err := MeasureWorld(st.World, StudyConfig{
		Days:            2,
		Seed:            42 ^ 0x5ca9,
		RestartInterval: 5*time.Hour + 30*time.Minute,
		MissingRate:     0.03,
		DuplicateRate:   0.02,
		Faults:          faults.Config{Seed: 42 ^ 0xfa17, LossRate: 0.05},
		Retry:           trinocular.RetryConfig{MaxAttempts: 3},
		CheckpointPath:  copyPath,
		Resume:          true,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("trinocular.probes_sent"); n != 0 {
		t.Fatalf("resume sent %d probes, want none: every block is in the file", n)
	}
	for i := range st.Blocks {
		if g, w := blockJSON(t, resumed.Blocks[i]), blockJSON(t, st.Blocks[i]); g != w {
			t.Fatalf("block %d after resume:\n got %s\nwant %s", i, g, w)
		}
	}
}
