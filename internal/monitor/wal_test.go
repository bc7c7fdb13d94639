package monitor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
)

func testMetrics() *monitorMetrics { return &monitorMetrics{} }

// appendFrame appends payload to buf as one finished frame.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(beginFrame(buf), payload...)
	finishFrame(buf, start)
	return buf
}

// readAll decodes every segment of a shard dir in order and returns the
// concatenated record payloads.
func readAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, sf := range segs {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		_, recs, _, damage := decodeSegment(data)
		if damage != nil {
			t.Fatalf("segment %s damaged: %v", sf.path, damage)
		}
		out = append(out, recs...)
	}
	return out
}

func TestWALRoundTripWithRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment bound forces several rotations.
	w, err := newWALWriter(dir, 3, 0, 128, false, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf(`{"round":%d,"payload":"abcdefghij"}`, i))
		want = append(want, p)
		if err := w.append(appendFrame(nil, p), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several sealed segments, got %d", len(segs))
	}
	for _, sf := range segs {
		if !sf.sealed {
			t.Fatalf("segment %s left unsealed after close", sf.path)
		}
	}
	got := readAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWALGC(t *testing.T) {
	dir := t.TempDir()
	w, err := newWALWriter(dir, 0, 0, 64, false, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.append(appendFrame(nil, []byte(`{"r":1234567890}`)), i); err != nil {
			t.Fatal(err)
		}
	}
	sealedBefore := len(w.sealedMax)
	if sealedBefore < 2 {
		t.Fatalf("expected rotations before gc, sealed=%d", sealedBefore)
	}
	// A snapshot covering every round lets gc delete all sealed segments.
	w.gc(9)
	if len(w.sealedMax) != 0 {
		t.Fatalf("gc left %d sealed segments registered", len(w.sealedMax))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range segs {
		if sf.sealed {
			t.Fatalf("sealed segment %s survived full gc", sf.path)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := newWALWriter(dir, 1, 0, 1<<20, false, testMetrics())
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	for i, p := range recs {
		if err := w.append(appendFrame(nil, p), i); err != nil {
			t.Fatal(err)
		}
	}
	w.abandon() // simulated kill: no seal

	segPath := filepath.Join(dir, segName(0, false))
	for _, corrupt := range []func() error{
		func() error { return faults.TruncateFileTail(segPath, 3) },
		func() error { return faults.CorruptFileTail(segPath, 2) },
	} {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		shard, got, _, damage := decodeSegment(data)
		if damage == nil {
			t.Fatal("tail damage went undetected")
		}
		if !errors.Is(damage, ErrCorrupt) {
			t.Fatalf("damage %v is not ErrCorrupt", damage)
		}
		if shard != 1 {
			t.Fatalf("shard = %d, want 1", shard)
		}
		// The intact prefix must survive: records 0 and 1.
		if len(got) != 2 || !bytes.Equal(got[0], recs[0]) || !bytes.Equal(got[1], recs[1]) {
			t.Fatalf("intact prefix lost: %q", got)
		}
	}
}

func TestDecodeSegmentDamageTyped(t *testing.T) {
	valid := encodeValidSegment(7, [][]byte{[]byte(`{"x":1}`), []byte(`{"y":2}`)})

	cases := map[string][]byte{
		"empty":            {},
		"header truncated": valid[:10],
		"bad magic":        append([]byte("NOTAWAL0"), valid[8:]...),
		"bad version": func() []byte {
			b := append([]byte(nil), valid...)
			binary.BigEndian.PutUint32(b[8:12], 99)
			return b
		}(),
		"torn frame": valid[:len(valid)-3],
		"crc flip": func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0x40
			return b
		}(),
		"giant length": func() []byte {
			b := append([]byte(nil), valid[:walHeaderSize]...)
			var f [8]byte
			binary.BigEndian.PutUint32(f[0:4], maxRecordSize+1)
			return append(b, f[:]...)
		}(),
	}
	for name, data := range cases {
		_, _, _, damage := decodeSegment(data)
		if damage == nil {
			t.Errorf("%s: no damage reported", name)
			continue
		}
		if !errors.Is(damage, ErrCorrupt) {
			t.Errorf("%s: %v is not ErrCorrupt", name, damage)
		}
	}

	// The undamaged image decodes fully.
	shard, recs, off, damage := decodeSegment(valid)
	if damage != nil || shard != 7 || len(recs) != 2 || off != int64(len(valid)) {
		t.Fatalf("valid image: shard=%d recs=%d off=%d damage=%v", shard, len(recs), off, damage)
	}
}

func encodeValidSegment(shard int, recs [][]byte) []byte {
	hdr := encodeSegmentHeader(shard)
	out := append([]byte(nil), hdr[:]...)
	for _, p := range recs {
		out = appendFrame(out, p)
	}
	return out
}

func TestParseSegName(t *testing.T) {
	cases := []struct {
		name   string
		seq    int
		sealed bool
		ok     bool
	}{
		{"seg-00000000.wal", 0, true, true},
		{"seg-00000042.open", 42, false, true},
		{"seg-1.wal", 1, true, true},
		{"snap.json", 0, false, false},
		{"seg-.wal", 0, false, false},
		{"seg--1.wal", 0, false, false},
		{"seg-00000001.tmp", 0, false, false},
	}
	for _, c := range cases {
		seq, sealed, ok := parseSegName(c.name)
		if ok != c.ok || (ok && (seq != c.seq || sealed != c.sealed)) {
			t.Errorf("parseSegName(%q) = (%d,%v,%v), want (%d,%v,%v)",
				c.name, seq, sealed, ok, c.seq, c.sealed, c.ok)
		}
	}
}

// TestWALGCRetriesFailedRemoval: a sealed segment that gc could not remove
// stays registered, so the next snapshot's gc tries again; forgetting it
// would leave it on disk, uncounted, for the rest of the campaign.
func TestWALGCRetriesFailedRemoval(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	w, err := newWALWriter(dir, 0, 0, 64, false, newMonitorMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.append(appendFrame(nil, []byte(`{"r":1234567890}`)), i); err != nil {
			t.Fatal(err)
		}
	}
	sealed := len(w.sealedMax)
	if sealed < 2 {
		t.Fatalf("expected rotations before gc, sealed=%d", sealed)
	}
	// Stand a non-empty directory at segment 0's name: os.Remove fails on
	// it with something other than not-exist. Segment 1 is simply gone.
	stuck := filepath.Join(dir, segName(0, true))
	if err := os.Remove(stuck); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(stuck, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(1, true))); err != nil {
		t.Fatal(err)
	}

	w.gc(9)
	if _, kept := w.sealedMax[0]; !kept || len(w.sealedMax) != 1 {
		t.Fatalf("after a failed removal sealedMax = %v, want only segment 0 kept", w.sealedMax)
	}
	deleted := func() int64 { return reg.Snapshot().Counter("monitor.wal_segments_deleted") }
	// Segment 0 failed and segment 1 was already gone: neither counts.
	if got, want := deleted(), int64(sealed-2); got != want {
		t.Fatalf("segments deleted = %d, want %d", got, want)
	}

	// Clear the obstruction down to something os.Remove can take; the next
	// snapshot's gc must retry, succeed, count it, and forget it.
	if err := os.Remove(filepath.Join(stuck, "occupant")); err != nil {
		t.Fatal(err)
	}
	w.gc(9)
	if len(w.sealedMax) != 0 {
		t.Fatalf("retry left sealedMax = %v", w.sealedMax)
	}
	if got, want := deleted(), int64(sealed-1); got != want {
		t.Fatalf("segments deleted after retry = %d, want %d", got, want)
	}
	if _, err := os.Stat(stuck); !os.IsNotExist(err) {
		t.Fatalf("segment 0 still on disk after retry: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}
