package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// failFsync arms the package fsync seam to fail after n successful calls,
// restoring the real fsync when the test ends.
func failFsync(t *testing.T, n int, err error) {
	t.Helper()
	real := fsync
	calls := 0
	fsync = func(f *os.File) error {
		calls++
		if calls > n {
			return err
		}
		return real(f)
	}
	t.Cleanup(func() { fsync = real })
}

// TestWriteFileAtomic pins the content contract and the fsync order: the
// temp file is synced before the final name exists, the directory after.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	log := recordFsyncs(t, path)
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []string{"state.json.tmp exists=false", filepath.Base(dir) + " exists=true"}
	if !slices.Equal(*log, want) {
		t.Fatalf("fsyncs %q, want %q", *log, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("read %q, want v1", got)
	}

	// Overwrite: the new content replaces the old atomically.
	if err := WriteFileAtomic(path, []byte("v2 longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2 longer" {
		t.Fatalf("read %q, want v2 longer", got)
	}

	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived: %v", err)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("want error for missing parent directory")
	}
}

func TestWriteFileAtomicFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("disk on fire")
	failFsync(t, 0, injected)
	err := WriteFileAtomic(path, []byte("new"), 0o644)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected fsync failure", err)
	}

	// The contract after a failure: old content intact, no temp husk.
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "old" {
		t.Fatalf("read %q, %v — old content not preserved", got, rerr)
	}
	if _, serr := os.Stat(path + ".tmp"); !os.IsNotExist(serr) {
		t.Fatalf("temp file survived the failed write: %v", serr)
	}
}

func TestWriteFileAtomicDirFsyncFailure(t *testing.T) {
	// The first fsync (temp file) succeeds; the second (parent directory)
	// fails. The rename has already happened, so the new content is at path,
	// but the caller must still see the error — durability was not achieved.
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	injected := errors.New("dir sync refused")
	failFsync(t, 1, injected)
	if err := WriteFileAtomic(path, []byte("x"), 0o644); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected dir-fsync failure", err)
	}
}

func TestSyncDirFailureNamesDir(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("no barriers here")
	failFsync(t, 0, injected)
	err := SyncDir(dir)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the directory", err)
	}
}

func TestWriteFileAtomicReclaimsZeroLengthTemp(t *testing.T) {
	// A crash between temp-create and write leaves a zero-length .tmp husk.
	// The next write must truncate through it and succeed, not refuse or
	// rename the husk into place.
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path+".tmp", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("fresh"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "fresh" {
		t.Fatalf("read %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("husk survived: %v", err)
	}
}

func TestRenameOntoExisting(t *testing.T) {
	// Sealing a segment over a leftover from an earlier crash must replace
	// it — POSIX rename semantics, made durable.
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "seg.open")
	newPath := filepath.Join(dir, "seg.wal")
	if err := os.WriteFile(oldPath, []byte("current"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte("stale leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Rename(oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(newPath)
	if err != nil || string(got) != "current" {
		t.Fatalf("read %q, %v", got, err)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("source survived: %v", err)
	}
}

// recordFsyncs swaps the fsync seam for one that logs, for every file it
// syncs, its base name and whether probe exists at that moment, then syncs
// for real.
func recordFsyncs(t *testing.T, probe string) *[]string {
	t.Helper()
	real := fsync
	var log []string
	fsync = func(f *os.File) error {
		_, err := os.Stat(probe)
		log = append(log, fmt.Sprintf("%s exists=%v", filepath.Base(f.Name()), err == nil))
		return real(f)
	}
	t.Cleanup(func() { fsync = real })
	return &log
}

// TestSealOrder pins the seal sequence through the fsync seam: the file is
// synced while it still has only its old name, and the directory after the
// rename — so a power cut cannot leave the new name on unsynced bytes.
func TestSealOrder(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "seg.open"), filepath.Join(dir, "seg.wal")
	f, err := os.Create(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("records"); err != nil {
		t.Fatal(err)
	}
	log := recordFsyncs(t, newPath)
	if err := Seal(f, oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	want := []string{"seg.open exists=false", filepath.Base(dir) + " exists=true"}
	if !slices.Equal(*log, want) {
		t.Fatalf("fsyncs %q, want %q", *log, want)
	}
	if got, err := os.ReadFile(newPath); err != nil || string(got) != "records" {
		t.Fatalf("read %q, %v", got, err)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("old name survived the seal: %v", err)
	}
}

// TestSealFsyncFailureRenamesNothing: when the file's fsync fails, the seal
// stops there — the bytes keep their unsealed name, the handle is closed.
func TestSealFsyncFailureRenamesNothing(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "seg.open"), filepath.Join(dir, "seg.wal")
	f, err := os.Create(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("disk on fire")
	failFsync(t, 0, injected)
	if err := Seal(f, oldPath, newPath); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected fsync failure", err)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Fatalf("sealed name exists after a failed fsync: %v", err)
	}
	if _, err := os.Stat(oldPath); err != nil {
		t.Fatalf("unsealed file gone: %v", err)
	}
	if _, err := f.WriteString("x"); err == nil {
		t.Fatal("handle still open after a failed seal")
	}
}

// TestCreateSyncsDirectory: Create fsyncs the new file's directory before
// it returns the handle, and reports a directory that will not sync.
func TestCreateSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.open")
	log := recordFsyncs(t, path)
	f, err := Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Base(dir) + " exists=true"}; !slices.Equal(*log, want) {
		t.Fatalf("fsyncs %q, want %q", *log, want)
	}
	if _, err := f.WriteString("header"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("no barriers here")
	failFsync(t, 0, injected)
	if _, err := Create(filepath.Join(dir, "seg2.open"), 0o644); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected directory fsync failure", err)
	}
}

// TestRenameDurable: Rename moves the file and syncs the directory only
// once the new name exists.
func TestRenameDurable(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "seg.open")
	newPath := filepath.Join(dir, "seg.wal")
	if err := os.WriteFile(oldPath, []byte("records"), 0o644); err != nil {
		t.Fatal(err)
	}
	log := recordFsyncs(t, newPath)
	if err := Rename(oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Base(dir) + " exists=true"}; !slices.Equal(*log, want) {
		t.Fatalf("fsyncs %q, want %q", *log, want)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("old path survived: %v", err)
	}
	got, err := os.ReadFile(newPath)
	if err != nil || string(got) != "records" {
		t.Fatalf("read %q, %v", got, err)
	}
}
