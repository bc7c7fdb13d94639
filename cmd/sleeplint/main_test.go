package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureExitCodes is the end-to-end contract of the gate: the built
// binary, run over each deliberately-broken fixture package,
// must exit 1 — and exit 0 on a clean package. The in-process golden test
// (internal/lint) pins which findings fire; this pins that firing actually
// fails a build.
func TestFixtureExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and type-checks every fixture")
	}
	bin := filepath.Join(t.TempDir(), "sleeplint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sleeplint: %v\n%s", err, out)
	}

	src := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir := stageFixture(t, filepath.Join(src, name), name)
			cmd := exec.Command(bin, "./...")
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			code := cmd.ProcessState.ExitCode()
			if hasWantMarkers(t, filepath.Join(src, name)) {
				if code != 1 {
					t.Fatalf("fixture %s: want exit 1, got %d (err %v)\n%s", name, code, err, out)
				}
			} else if code != 0 {
				t.Fatalf("fixture %s: want exit 0, got %d\n%s", name, code, out)
			}
		})
	}

	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "go.mod"), "module fixture/clean\n\ngo 1.24\n")
		writeFile(t, filepath.Join(dir, "clean.go"), "package clean\n\n// Two returns two.\nfunc Two() int { return 2 }\n")
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 0 {
			t.Fatalf("clean package: want exit 0, got %d (err %v)\n%s", code, err, out)
		}
	})
}

// stageFixture copies one fixture package into a temp module, under an
// internal/ directory: rules like norand scope themselves to internal/
// paths, and the in-tree fixtures satisfy that by living below
// internal/lint/testdata — the staged copy must too.
func stageFixture(t *testing.T, src, name string) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixture/"+name+"\n\ngo 1.24\n")
	pkgDir := filepath.Join(dir, "internal", name)
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(pkgDir, e.Name()), string(data))
	}
	return dir
}

func hasWantMarkers(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "// want ") {
			return true
		}
	}
	return false
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
