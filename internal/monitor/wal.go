package monitor

// wal.go — the monitor's durability layer: a per-shard, segmented,
// CRC-framed write-ahead log.
//
// Layout (one directory per shard under the monitor's WAL root):
//
//	wal/meta.json                     — campaign identity (JSON), written atomically
//	wal/shard-0003/seg-00000007.wal   — sealed segment (immutable, kept for the campaign)
//	wal/shard-0003/seg-00000008.open  — the segment being appended to
//	wal/shard-0003/snap.json          — latest shard snapshot (atomic rename;
//	                                    binary despite the name, see snapName)
//
// Segment format: a 16-byte header (magic, version, shard), then framed
// records: 4-byte big-endian payload length, 4-byte big-endian CRC-32C of
// the payload, payload bytes. This file owns the frames and knows nothing of
// what a payload holds; record.go owns the payloads (a record is what the
// round observed, not the state it left behind). A
// record is committed once its frame is fully on disk (fsynced when the
// monitor runs with Sync). A segment is sealed when it fills, at a drain
// and at the campaign's end: durable.Seal fsyncs it and renames seg-N.open
// → seg-N.wal (atomic), so a reader can trust every sealed segment
// completely and must only tolerate damage at the tail of the single .open
// segment. Sealed segments are never deleted — they are the campaign's
// series, which a snapshot does not carry — and the next segment is opened
// by the next append.
//
// There is no read path for an older version: a version 1 or 2 directory
// is refused by the meta.json comparison (ErrMismatch) before any segment
// is opened, and a stray older segment or snapshot by the header check
// below (ErrCorrupt).
//
// Recovery policy (the classic one): scan records forward; the first
// damaged frame ends the segment. Damage in a sealed (non-final) segment is
// history loss in the middle of the log and is fatal (ErrCorrupt); damage
// at the tail of the final segment is the expected signature of a crash
// mid-append and is repaired by truncating the tail (counted, never
// silent). Every decoder error is typed — fuzzed inputs must map to
// ErrCorrupt, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sleepnet/internal/durable"
)

const (
	walMagic   = "SLPWAL01"
	walVersion = 3
	// snapName is the shard snapshot's file name. The payload has not been
	// JSON since version 2; the name stays because bench/monitorwal.go globs
	// it for durable.write_atomic_ms and bench/ may not change in a PR that
	// claims a gain — renaming it is left to a later benchmark PR.
	snapName = "snap.json"
	// walHeaderSize is magic(8) + version(4) + shard(4).
	walHeaderSize = 16
	// walFrameSize is length(4) + crc(4).
	walFrameSize = 8
	// maxRecordSize bounds a frame's claimed payload length so a corrupt
	// length field cannot drive a giant allocation.
	maxRecordSize = 16 << 20
)

// ErrCorrupt is the typed decode failure for any damaged WAL or snapshot
// byte stream: bad magic, impossible length, CRC mismatch, truncated frame.
// Recovery tolerates it only at the tail of the final open segment.
var ErrCorrupt = errors.New("monitor: wal corrupt")

// castagnoli is the CRC-32C table; the same polynomial storage systems use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginFrame reserves a frame header at the end of buf. The caller appends
// the payload behind it and then calls finishFrame with the offset the
// header sits at (len(buf) before the call), so a payload is encoded once,
// in place, with no staging copy.
func beginFrame(buf []byte) []byte {
	var hdr [walFrameSize]byte
	buf = append(buf, hdr[:]...)
	return buf
}

// finishFrame fills in the header reserved at buf[start:] for the payload
// that follows it to the end of buf.
func finishFrame(buf []byte, start int) {
	payload := buf[start+walFrameSize:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// encodeSegmentHeader writes the 16-byte segment header.
func encodeSegmentHeader(shard int) [walHeaderSize]byte {
	var h [walHeaderSize]byte
	copy(h[:8], walMagic)
	binary.BigEndian.PutUint32(h[8:12], walVersion)
	binary.BigEndian.PutUint32(h[12:16], uint32(shard))
	return h
}

// decodeSegment parses a segment image: header then framed records. It
// returns the shard id from the header, the payloads of every intact
// record in order, the byte offset where decoding stopped, and damage —
// nil when the image ends exactly at a record boundary, otherwise an error
// wrapping ErrCorrupt describing the first damaged frame. Records before
// the damage are always returned; the caller decides whether the damage is
// a repairable tail or fatal mid-history corruption.
func decodeSegment(data []byte) (shard int, recs [][]byte, off int64, damage error) {
	if len(data) < walHeaderSize {
		return 0, nil, 0, fmt.Errorf("monitor: wal header truncated (%d bytes): %w", len(data), ErrCorrupt)
	}
	if string(data[:8]) != walMagic {
		return 0, nil, 0, fmt.Errorf("monitor: wal bad magic: %w", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != walVersion {
		return 0, nil, 0, fmt.Errorf("monitor: wal version %d, want %d: %w", v, walVersion, ErrCorrupt)
	}
	shard = int(binary.BigEndian.Uint32(data[12:16]))
	pos := int64(walHeaderSize)
	for {
		rest := data[pos:]
		if len(rest) == 0 {
			return shard, recs, pos, nil
		}
		if len(rest) < walFrameSize {
			return shard, recs, pos, fmt.Errorf("monitor: wal frame truncated at offset %d: %w", pos, ErrCorrupt)
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n > maxRecordSize {
			return shard, recs, pos, fmt.Errorf("monitor: wal record length %d exceeds bound at offset %d: %w", n, pos, ErrCorrupt)
		}
		if int64(len(rest)) < walFrameSize+int64(n) {
			return shard, recs, pos, fmt.Errorf("monitor: wal record torn at offset %d (%d of %d bytes): %w", pos, len(rest)-walFrameSize, n, ErrCorrupt)
		}
		payload := rest[walFrameSize : walFrameSize+int64(n)]
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(rest[4:8]) {
			return shard, recs, pos, fmt.Errorf("monitor: wal crc mismatch at offset %d: %w", pos, ErrCorrupt)
		}
		recs = append(recs, payload)
		pos += walFrameSize + int64(n)
	}
}

// shardDirName returns the per-shard WAL directory name.
func shardDirName(shard int) string { return fmt.Sprintf("shard-%04d", shard) }

// segName returns a segment file name; sealed segments end in .wal, the
// live one in .open.
func segName(seq int, sealed bool) string {
	ext := ".open"
	if sealed {
		ext = ".wal"
	}
	//lint:allow hotalloc: commitRound reaches this only when a segment opens or seals, once per segmentBytes
	return fmt.Sprintf("seg-%08d%s", seq, ext)
}

// parseSegName extracts the sequence number of a segment file name and
// whether it is sealed; ok is false for unrelated files.
func parseSegName(name string) (seq int, sealed, ok bool) {
	var ext string
	switch {
	case strings.HasSuffix(name, ".wal"):
		ext, sealed = ".wal", true
	case strings.HasSuffix(name, ".open"):
		ext, sealed = ".open", false
	default:
		return 0, false, false
	}
	if !strings.HasPrefix(name, "seg-") {
		return 0, false, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ext)
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false, false
	}
	return n, sealed, true
}

// walWriter appends framed records to a shard's open segment, sealing it
// past its segment size. Not safe for concurrent use: each shard owns exactly
// one writer.
type walWriter struct {
	dir      string // the shard's WAL directory
	shard    int
	seq      int      // sequence of the open segment, or of the next one
	f        *os.File // the open segment; nil until the next append opens one
	written  int64    // bytes in the open segment
	segBytes int64
	sync     bool

	m *monitorMetrics
}

// newWALWriter prepares (creating if needed) the shard directory; the first
// append opens segment nextSeq.
func newWALWriter(dir string, shard, nextSeq int, segBytes int64, sync bool, m *monitorMetrics) (*walWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("monitor: wal: %w", err)
	}
	return &walWriter{dir: dir, shard: shard, seq: nextSeq, segBytes: segBytes, sync: sync, m: m}, nil
}

// openSegment creates segment w.seq and writes its header. Under per-record
// Sync the directory is fsynced too (durable.Create), so a record fsynced
// into the new segment cannot lose the file's name to a power cut before
// the segment seals.
func (w *walWriter) openSegment() error {
	path := filepath.Join(w.dir, segName(w.seq, false))
	var f *os.File
	var err error
	if w.sync {
		f, err = durable.Create(path, 0o644)
	} else {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return fmt.Errorf("monitor: wal: %w", err)
	}
	hdr := encodeSegmentHeader(w.shard)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close() // best effort: the write error is the one to surface
		return fmt.Errorf("monitor: wal: %w", err)
	}
	w.f = f
	w.written = int64(walHeaderSize)
	return nil
}

// append commits one record — frame is a finished frame, header and
// payload — with a single write call (so an in-process crash can never leave
// a half-written frame), optional fsync, and a seal when the segment is
// full. A writer with no open segment opens the next one first.
func (w *walWriter) append(frame []byte) error {
	if w.f == nil {
		if err := w.openSegment(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("monitor: wal append: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("monitor: wal sync: %w", err)
		}
	}
	w.written += int64(len(frame))
	w.m.walRecords.Inc()
	w.m.walBytes.Add(int64(len(frame)))
	if w.written >= w.segBytes {
		return w.seal()
	}
	return nil
}

// seal makes the open segment immutable through durable.Seal: fsync,
// close, atomic rename to .wal, directory fsync. Sealing always syncs, even
// when per-record Sync is off, so a sealed segment is trustworthy end to
// end. The sequence advances before the seal, so a writer that failed one
// never reopens its name; with no open segment there is nothing to seal.
func (w *walWriter) seal() error {
	if w.f == nil {
		return nil
	}
	f, seq := w.f, w.seq
	w.f = nil
	w.seq++
	if err := durable.Seal(f, filepath.Join(w.dir, segName(seq, false)), filepath.Join(w.dir, segName(seq, true))); err != nil {
		return fmt.Errorf("monitor: wal seal: %w", err)
	}
	w.m.walSeals.Inc()
	return nil
}

// flush fsyncs the open segment, when there is one.
func (w *walWriter) flush() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("monitor: wal sync: %w", err)
	}
	return nil
}

// close seals the open segment (graceful drain). abandon drops the handle
// without sealing (simulated kill), leaving the .open tail exactly as a
// real crash would.
func (w *walWriter) close() error { return w.seal() }

func (w *walWriter) abandon() {
	if w.f != nil {
		_ = w.f.Close() // simulated kill: the torn .open tail is the point
		w.f = nil
	}
}

// segmentFile pairs a segment's sequence number with its path and seal
// state, sorted for replay.
type segmentFile struct {
	seq    int
	sealed bool
	path   string
}

// listSegments returns the shard directory's segment files in sequence
// order. A missing directory is an empty log.
func listSegments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("monitor: wal: %w", err)
	}
	var segs []segmentFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, sealed, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentFile{seq: seq, sealed: sealed, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq == segs[i-1].seq {
			// Both seg-N.open and seg-N.wal exist. Sealing is one rename(2),
			// which leaves the old name or the new one behind a crash, never
			// both, so the pair was not written by a monitor: refuse the
			// directory rather than guess which file is the history.
			return nil, fmt.Errorf("monitor: wal: duplicate segment %d in %s: %w", segs[i].seq, dir, ErrCorrupt)
		}
	}
	return segs, nil
}
