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
	"sleepnet/internal/report"
	"sleepnet/internal/world"
)

// TestReportSameFromMemoryAndFile measures a study with -o and -csv, then
// inspects the saved file: the report printed from the file must be the
// report printed from memory, byte for byte, once the lines only one of the
// two callers prints are dropped, and the re-exported CSV must equal the
// one written from memory.
func TestReportSameFromMemoryAndFile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []string
	}{
		{"fault-free", nil},
		{"faulted", []string{"-loss", "0.05", "-blackout-every", "6h", "-blackout-for", "30m"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			study := filepath.Join(dir, "study.jsonl")
			measuredCSV := filepath.Join(dir, "measured.csv")
			inspectedCSV := filepath.Join(dir, "inspected.csv")

			var measured, inspected bytes.Buffer
			args := append([]string{"-blocks", "200", "-days", "2", "-o", study, "-csv", measuredCSV}, tc.faults...)
			if err := run(args, &measured); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"inspect", "-csv", inspectedCSV, study}, &inspected); err != nil {
				t.Fatal(err)
			}
			got, want := reportLines(inspected.String()), reportLines(measured.String())
			if got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < min(len(g), len(w)); i++ {
					if g[i] != w[i] {
						t.Fatalf("report line %d: inspect printed\n%q\nsleepscan printed\n%q", i+1, g[i], w[i])
					}
				}
				t.Fatalf("inspect printed %d report lines, sleepscan %d", len(g), len(w))
			}
			if tc.faults != nil && !strings.Contains(want, "fault injection:") {
				t.Errorf("faulted study's report has no fault totals:\n%s", want)
			}

			a, err := os.ReadFile(measuredCSV)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(inspectedCSV)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("inspect -csv differs from sleepscan -csv")
			}
		})
	}
}

// TestReportPrintsTheRegistryTables holds sleepscan's report to the
// experiments registry's rendering of the paper's study tables. On a
// fault-free and a faulted study, the report past its own counts must be
// exactly the text report's table functions render for the saved study,
// in report order: each table byte for byte, one whose join fails on the
// study left out, and nothing else — the link section is Fig 17's rDNS
// keyword table, not a count of the generator's link types.
func TestReportPrintsTheRegistryTables(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []string
	}{
		{"fault-free", nil},
		{"faulted", []string{"-loss", "0.05", "-blackout-every", "6h", "-blackout-for", "30m"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "study.jsonl")
			var out bytes.Buffer
			if err := run(append([]string{"-blocks", "200", "-days", "3", "-o", path}, tc.faults...), &out); err != nil {
				t.Fatal(err)
			}
			st, _, err := analysis.LoadStudy(path)
			if err != nil {
				t.Fatal(err)
			}
			table4, _ := report.Table4(st)
			table3, _ := report.Table3(st)
			fig16, _, err16 := report.Fig16(st)
			fig14, _, _, err14 := report.Fig14(st)
			fig17, _, err17 := report.Fig17(st)
			outages, _, _, errOut := report.Outages(st)
			var want strings.Builder
			for _, table := range []struct {
				text string
				err  error
			}{{table4, nil}, {table3, nil}, {fig16, err16}, {fig14, err14}, {fig17, err17}, {outages, errOut}} {
				if table.err != nil {
					if tc.faults == nil {
						t.Fatalf("fixture: a table fails on the fault-free study: %v", table.err)
					}
					continue
				}
				want.WriteString("\n" + table.text)
			}
			printed := reportLines(out.String())
			_, tables, ok := strings.Cut(printed, "\n\nTable 4: ")
			if !ok {
				t.Fatalf("report has no Table 4:\n%s", printed)
			}
			if got := "\nTable 4: " + tables; got != want.String() {
				t.Fatalf("report's study tables:\n%s\nregistry's:\n%s", got, want.String())
			}
		})
	}
}

// TestRefusesBadCampaign: a campaign of no days, or a negative rate limit,
// used to run and report something other than what was asked — 14 days
// headlined as "probed for 0 days", "-332 rounds" with every block failed,
// or no rate limit at all. sleepscan refuses each and names the field.
func TestRefusesBadCampaign(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-days", "0"}, "Days"},
		{[]string{"-days", "-3"}, "Days"},
		{[]string{"-days", "1", "-ratelimit", "-3"}, "RateLimitPerRound"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-blocks", "20"}, tc.args...), &out)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("sleepscan %v: got %v, want an error naming %s", tc.args, err, tc.field)
		}
	}
}

// reportLines drops from a command's output the lines that belong to the
// caller, not to the study: sleepscan's elapsed time and save notice, and
// either command's CSV notice.
func reportLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sleepscan: ") || strings.HasPrefix(line, "study saved to ") ||
			strings.HasPrefix(line, "CSV exported to ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestInspectCountsQuarantinedAsUnmeasured runs inspect over a study whose
// vantage point is down 20 minutes an hour — every block quarantined, as in
// sleepscan -blackout-every 1h -blackout-for 20m — and checks the report
// says what the measurement found: nothing measured.
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
	if err := run([]string{"inspect", "-csv", csvPath, path}, &out); err != nil {
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

	if err := run([]string{"inspect", "-by", "planet", path}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v, want a usage error", err)
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
	if err := run([]string{"inspect", path}, &out); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("study without trailer: err = %v, want one naming -resume", err)
	}
}
