package monitor

// codec_test.go — the v2 payload codec (record.go): round trips compared on
// float bits, hostile shapes, the on-disk format pin, and the refusal of
// version 1 remains.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sleepnet/internal/core"
	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/trinocular"
)

// appendRecord encodes a whole record the way commitRound does block by
// block.
func appendRecord(b []byte, rec *walRecord) []byte {
	b = appendRecordHeader(b, rec.Round, len(rec.Deltas))
	for i := range rec.Deltas {
		b = appendDelta(b, &rec.Deltas[i])
	}
	return b
}

// sampleRecord and sampleSnapshot are the small fixed values behind the
// format pin, the damage sweep and the fuzz seeds. Every field is non-zero
// somewhere and no two fields of an element share a value, so a swapped or
// dropped field changes the bytes.
func sampleRecord() *walRecord {
	return &walRecord{Round: 7, Deltas: []blockDelta{
		{
			Prober: trinocular.BlockState{ID: netsim.MakeBlockID(10, 0, 1), Belief: 0.875, Up: true, Round: 8, Pos: 3, Seq: 0x1234, DownStreak: 0},
			Est:    core.EstimatorState{AlphaS: 0.1, AlphaL: 0.01, PS: 0.5, TS: 1.25, PL: 0.75, TL: 1.5, DL: 0.0625, Rounds: 8},
			Short:  0.4, Event: eventUp, Failed: false,
		},
		{
			Prober: trinocular.BlockState{ID: netsim.MakeBlockID(10, 0, 2), Belief: 0.125, Up: false, Round: 8, Pos: 11, Seq: 0xfffe, DownStreak: 2},
			Est:    core.EstimatorState{AlphaS: 0.1, AlphaL: 0.01, PS: 0.25, TS: 2, PL: 0.375, TL: 3, DL: 0.5, Rounds: 6},
			Short:  math.Copysign(0, -1), Event: eventDown, Failed: true,
		},
	}}
}

func sampleSnapshot() *shardSnapshot {
	rec := sampleRecord()
	return &shardSnapshot{Shard: 2, Round: 3, Blocks: []blockSnapshot{
		{
			Prober: rec.Deltas[0].Prober, Est: rec.Deltas[0].Est,
			Short:  []float64{0.5, 0.4, math.Inf(1)},
			Events: []core.OutageEvent{{Round: 0, Down: false}},
			Failed: 0,
		},
		{
			Prober: rec.Deltas[1].Prober, Est: rec.Deltas[1].Est,
			Short:  []float64{0.25, math.Float64frombits(1), 0.125},
			Events: []core.OutageEvent{{Round: 1, Down: true}, {Round: 2, Down: false}},
			Failed: 1,
		},
	}}
}

// snapshotImage frames payload the way encodeSnapshot frames its own.
func snapshotImage(shard int, payload []byte) []byte {
	hdr := encodeSegmentHeader(shard)
	return appendFrame(append([]byte(nil), hdr[:]...), payload)
}

// snapshotPayload is the payload of a snapshot file image.
func snapshotPayload(img []byte) []byte { return img[walHeaderSize+walFrameSize:] }

// bitsEqual is reflect.DeepEqual with floats compared on their bits — NaN
// payloads and the sign of zero count — and nil equal to empty.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Ptr:
		return bitsEqual(a.Elem(), b.Elem())
	default:
		return a.Interface() == b.Interface()
	}
}

// hostileFloat draws from the values encoding/json refuses outright or
// rounds: NaNs with payloads, -0, denormals, infinities, raw bit patterns.
func hostileFloat(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return math.Float64frombits(0x7ff0000000000001 | r.Uint64()&(1<<63|(1<<52-1)))
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(1 + r.Uint64()&(1<<52-2))
	case 3:
		return math.Inf(1 - 2*r.Intn(2))
	default:
		return math.Float64frombits(r.Uint64())
	}
}

func randInt(r *rand.Rand) int { return int(r.Uint64()) }

func randProber(r *rand.Rand, id uint32) trinocular.BlockState {
	return trinocular.BlockState{ID: netsim.BlockID(id), Belief: hostileFloat(r), Up: r.Intn(2) == 1,
		Round: randInt(r), Pos: randInt(r), Seq: uint16(r.Uint32()), DownStreak: randInt(r)}
}

func randEst(r *rand.Rand) core.EstimatorState {
	return core.EstimatorState{AlphaS: hostileFloat(r), AlphaL: hostileFloat(r), PS: hostileFloat(r), TS: hostileFloat(r),
		PL: hostileFloat(r), TL: hostileFloat(r), DL: hostileFloat(r), Rounds: randInt(r)}
}

// TestCodecRoundTripProperty: decode(encode(x)) == x on every bit, for
// records and snapshots filled with the floats JSON could not carry. Under
// version 1 one NaN in an estimator made json.Marshal fail, and the shard
// crash-looped on a round it could never commit.
func TestCodecRoundTripProperty(t *testing.T) {
	record := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := &walRecord{Round: int(r.Int63())}
		for i, n := 0, r.Intn(6); i < n; i++ {
			in.Deltas = append(in.Deltas, blockDelta{Prober: randProber(r, r.Uint32()), Est: randEst(r),
				Short: hostileFloat(r), Event: r.Intn(3), Failed: r.Intn(2) == 1})
		}
		var out walRecord
		if err := decodeRecord(appendRecord(nil, in), &out); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return bitsEqual(reflect.ValueOf(in), reflect.ValueOf(&out))
	}
	if err := quick.Check(record, nil); err != nil {
		t.Error("record:", err)
	}

	snapshot := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := &shardSnapshot{Shard: r.Intn(1 << 16), Round: int(r.Int63())}
		id := uint32(0)
		for i, n := 0, r.Intn(5); i < n; i++ {
			id += 1 + uint32(r.Intn(1000)) // strictly ascending, as decode demands
			bs := blockSnapshot{Prober: randProber(r, id), Est: randEst(r), Failed: randInt(r)}
			for j, m := 0, r.Intn(9); j < m; j++ {
				bs.Short = append(bs.Short, hostileFloat(r))
			}
			for j, m := 0, r.Intn(4); j < m; j++ {
				bs.Events = append(bs.Events, core.OutageEvent{Round: randInt(r), Down: r.Intn(2) == 1})
			}
			in.Blocks = append(in.Blocks, bs)
		}
		out, err := decodeSnapshot(encodeSnapshot(nil, in))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return bitsEqual(reflect.ValueOf(in), reflect.ValueOf(out))
	}
	if err := quick.Check(snapshot, nil); err != nil {
		t.Error("snapshot:", err)
	}
}

func TestSnapshotRoundTripAndDamage(t *testing.T) {
	snap := sampleSnapshot()
	data := encodeSnapshot(nil, snap)
	if want := walHeaderSize + walFrameSize + snapshotPayloadSize(snap); len(data) != want {
		t.Fatalf("image is %d bytes, presized for %d", len(data), want)
	}
	got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(reflect.ValueOf(snap), reflect.ValueOf(got)) {
		t.Fatalf("round-trip = %+v, want %+v", got, snap)
	}
	// The image buffer is reused: a second encode over it must not keep
	// anything of the first.
	if again := encodeSnapshot(append([]byte(nil), data...), snap); !bytes.Equal(again, data) {
		t.Fatal("encode over a used buffer differs from a fresh encode")
	}

	// Every byte is covered by the magic, the version, the header/payload
	// shard agreement, the length, or the CRC.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := decodeSnapshot(mut); err == nil {
			t.Errorf("bit flip at byte %d went undetected", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: %v is not ErrCorrupt", i, err)
		}
	}
	for n := range data {
		if _, err := decodeSnapshot(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// hostilePayloads are structurally damaged payloads under a valid CRC — what
// a bug or an attacker produces, not what a disk does. The JSON decoder
// bounded these for free; the binary one has to do it by hand.
func hostilePayloads() (records, snapshots map[string][]byte) {
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	rec := appendRecord(nil, sampleRecord())
	const delta0 = recordHeaderSize
	const tail = stateSize // offset of Short within a delta, of Failed within a snapshot block
	records = map[string][]byte{
		"empty":            {},
		"header truncated": rec[:recordHeaderSize-1],
		"count 2^32-1": func() []byte {
			b := clone(rec)
			be.PutUint32(b[8:], math.MaxUint32)
			return b
		}(),
		"count times size wraps 32 bits": func() []byte {
			// 38008561 * 113 = 2^32 + 97: a 32-bit product would read 97.
			b := clone(rec[:recordHeaderSize+97])
			be.PutUint32(b[8:], 38008561)
			return b
		}(),
		"one byte short": rec[:len(rec)-1],
		"trailing byte":  append(clone(rec), 0),
		"count one more": func() []byte {
			b := clone(rec)
			be.PutUint32(b[8:], 3)
			return b
		}(),
		"bad bool up": func() []byte {
			b := clone(rec)
			b[delta0+12] = 2
			return b
		}(),
		"bad bool failed": func() []byte {
			b := clone(rec)
			b[delta0+tail+9] = 0xff
			return b
		}(),
		"bad event": func() []byte {
			b := clone(rec)
			b[delta0+tail+8] = 3
			return b
		}(),
		"negative round": func() []byte {
			b := clone(rec)
			putInt(b[0:], -1)
			return b
		}(),
	}

	snap := snapshotPayload(encodeSnapshot(nil, sampleSnapshot()))
	const block0 = snapHeaderSize
	// Block 0 carries 3 values and 1 event.
	const block0Events = block0 + snapBlockSize + 3*8
	const block1 = block0Events + 1*eventSize
	snapshots = map[string][]byte{
		"empty":            {},
		"header truncated": snap[:snapHeaderSize-1],
		"block count 2^32-1": func() []byte {
			b := clone(snap)
			be.PutUint32(b[12:], math.MaxUint32)
			return b
		}(),
		"block count one more": func() []byte {
			b := clone(snap)
			be.PutUint32(b[12:], 3)
			return b
		}(),
		"series count 2^32-1": func() []byte {
			b := clone(snap)
			be.PutUint32(b[block0+tail+8:], math.MaxUint32)
			return b
		}(),
		"event count 2^32-1": func() []byte {
			b := clone(snap)
			be.PutUint32(b[block0+tail+12:], math.MaxUint32)
			return b
		}(),
		"counts times sizes one byte past the payload": func() []byte {
			// Block 1's 3 values and 2 events are the last 42 bytes; 2 values
			// and 3 events would be 43.
			b := clone(snap)
			be.PutUint32(b[block1+tail+8:], 2)
			be.PutUint32(b[block1+tail+12:], 3)
			return b
		}(),
		"one byte short": snap[:len(snap)-1],
		"trailing byte":  append(clone(snap), 0),
		"bad bool up": func() []byte {
			b := clone(snap)
			b[block0+12] = 2
			return b
		}(),
		"bad bool event down": func() []byte {
			b := clone(snap)
			b[block0Events+8] = 2
			return b
		}(),
		"blocks out of order": func() []byte {
			b := clone(snap)
			copy(b[block1:block1+4], b[block0:block0+4])
			return b
		}(),
		"negative round": func() []byte {
			b := clone(snap)
			putInt(b[4:], -1)
			return b
		}(),
		"payload shard differs from header": func() []byte {
			b := clone(snap)
			be.PutUint32(b[0:], 3)
			return b
		}(),
	}
	return records, snapshots
}

// allocatedBytes is how much f allocated.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeHostilePayloads: every hostile shape is ErrCorrupt, and none
// makes the decoder allocate by the count it claims — a 2^32-element claim
// would be hundreds of gigabytes.
func TestDecodeHostilePayloads(t *testing.T) {
	const budget = 8 << 10 // the sample's own few elements plus the error
	records, snapshots := hostilePayloads()
	for name, payload := range records {
		var err error
		got := allocatedBytes(func() { err = decodeRecord(payload, new(walRecord)) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("record %q: err = %v, want ErrCorrupt", name, err)
		}
		if got > budget {
			t.Errorf("record %q: decoder allocated %d bytes on a %d-byte payload", name, got, len(payload))
		}
	}
	for name, payload := range snapshots {
		img := snapshotImage(sampleSnapshot().Shard, payload)
		var err error
		got := allocatedBytes(func() { _, err = decodeSnapshot(img) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("snapshot %q: err = %v, want ErrCorrupt", name, err)
		}
		if got > budget {
			t.Errorf("snapshot %q: decoder allocated %d bytes on a %d-byte payload", name, got, len(payload))
		}
	}
}

// FuzzWALDecode is the decoder's no-panic/typed-error contract: arbitrary
// bytes fed to the segment, record and snapshot decoders must produce either
// a clean decode or an error chained to ErrCorrupt — never a panic, never an
// untyped failure, never an allocation sized by a count the input merely
// claims. The last is checked by canonicity: whatever decodes must encode
// back to exactly the bytes it came from, so a decoded value is never larger
// than its input. Seeds cover the known crash shapes (torn tail, bit flip,
// truncated header, hostile length field) and the hostile payload shapes of
// TestDecodeHostilePayloads under valid CRCs; new crashers found by fuzzing
// land in testdata/fuzz as regression seeds automatically.
func FuzzWALDecode(f *testing.F) {
	valid := encodeValidSegment(1, [][]byte{appendRecord(nil, sampleRecord()), appendRecord(nil, &walRecord{Round: 8})})
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // torn tail
	f.Add(valid[:12])           // truncated header
	f.Add([]byte{})
	flip := append([]byte(nil), valid...)
	flip[walHeaderSize+2] ^= 0x10
	f.Add(flip)
	hostile := append([]byte(nil), valid[:walHeaderSize]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(hostile) // length field claims 4 GiB
	f.Add(encodeSnapshot(nil, sampleSnapshot()))
	f.Add(encodeSnapshot(nil, &shardSnapshot{Shard: 0, Round: 1}))
	records, snapshots := hostilePayloads()
	for _, name := range sortedKeys(records) {
		f.Add(encodeValidSegment(1, [][]byte{records[name]}))
	}
	for _, name := range sortedKeys(snapshots) {
		f.Add(snapshotImage(sampleSnapshot().Shard, snapshots[name]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, off, damage := decodeSegment(data)
		if damage != nil && !errors.Is(damage, ErrCorrupt) {
			t.Fatalf("segment damage not typed: %v", damage)
		}
		if off > int64(len(data)) {
			t.Fatalf("offset %d past input length %d", off, len(data))
		}
		for _, r := range recs {
			var rec walRecord
			if err := decodeRecord(r, &rec); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record error not typed: %v", err)
				}
			} else if !bytes.Equal(appendRecord(nil, &rec), r) {
				t.Fatalf("record of %d blocks does not encode back to its %d bytes", len(rec.Deltas), len(r))
			}
		}
		if snap, err := decodeSnapshot(data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("snapshot error not typed: %v", err)
			}
		} else if !bytes.Equal(encodeSnapshot(nil, snap), data) {
			t.Fatalf("snapshot of %d blocks does not encode back to its %d bytes", len(snap.Blocks), len(data))
		}
	})
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestFormatPinned holds the on-disk layout still: one small record payload
// and one small snapshot image, byte for byte, against testdata/. A change
// that moves these bytes orphans every WAL directory in the field, so it
// must come with a walVersion bump (and new goldens, written by running the
// test with SLEEPNET_UPDATE_GOLDEN=1) — never alone.
func TestFormatPinned(t *testing.T) {
	for name, got := range map[string][]byte{
		"record_v2.hex":   appendRecord(nil, sampleRecord()),
		"snapshot_v2.hex": encodeSnapshot(nil, sampleSnapshot()),
	} {
		path := filepath.Join("testdata", name)
		if os.Getenv("SLEEPNET_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(hexLines(got)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the v%d layout moved (%d bytes, golden %d); bump walVersion with any layout change\ngot:\n%s",
				path, walVersion, len(got), len(want), hexLines(got))
		}
	}
	if walVersion != 2 {
		t.Errorf("walVersion = %d but the goldens are named v2: rename them with the bump", walVersion)
	}
	// The sizes DESIGN §12 tabulates.
	if deltaSize != 113 || recordHeaderSize != 12 || snapHeaderSize != 16 || snapBlockSize != 119 || eventSize != 9 {
		t.Errorf("element sizes moved: delta %d, record header %d, snapshot header %d, snapshot block %d, event %d",
			deltaSize, recordHeaderSize, snapHeaderSize, snapBlockSize, eventSize)
	}
}

// hexLines renders b as 16 space-separated bytes a line.
func hexLines(b []byte) string {
	var sb strings.Builder
	for ; len(b) > 16; b = b[16:] {
		fmt.Fprintf(&sb, "% x\n", b[:16])
	}
	fmt.Fprintf(&sb, "% x\n", b)
	return sb.String()
}

// TestV1DirectoryRefused: there is no version 1 read path. A directory
// whose meta.json says Version 1 is a different campaign as far as New is
// concerned, and a version 1 segment or snapshot header is corruption.
func TestV1DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig(testNet(6), 4)
	cfg.Shards = 1
	cfg.WALDir = dir
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta walMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Version != walVersion {
		t.Fatalf("fresh meta.json says version %d, want %d", meta.Version, walVersion)
	}
	meta.Version = 1
	if data, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, ErrMismatch) {
		t.Fatalf("New over a version 1 meta.json: err = %v, want ErrMismatch", err)
	}

	v1 := encodeValidSegment(0, [][]byte{[]byte(`{"Round":0,"Deltas":[]}`)})
	be.PutUint32(v1[8:12], 1)
	if _, _, _, damage := decodeSegment(v1); !errors.Is(damage, ErrCorrupt) {
		t.Fatalf("version 1 segment header: damage = %v, want ErrCorrupt", damage)
	}
	if _, err := decodeSnapshot(v1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version 1 snapshot header: err = %v, want ErrCorrupt", err)
	}
	// And a version 2 frame around a version 1 payload — a header edited by
	// hand — still does not get a JSON record past the record decoder.
	if err := decodeRecord([]byte(`{"Round":0,"Deltas":[]}`), new(walRecord)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("JSON record payload: err = %v, want ErrCorrupt", err)
	}

	// A sealed version 1 segment inside an otherwise fresh directory stops
	// the shard's recovery rather than being skipped.
	fresh := t.TempDir()
	cfg.WALDir = fresh
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(fresh, shardDirName(0))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir, segName(0, true)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.shards[0].rebuild(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over a version 1 segment: err = %v, want ErrCorrupt", err)
	}
}

// TestWALBytesPerBlockRound pins what a committed block-round costs on disk.
// It repeats exactly, so it is a plain test and not a benchmark: 113 bytes a
// block plus a 20-byte frame and record header a shard-round (327.8 B a
// block-round under version 1's JSON on the benchmark's world).
func TestWALBytesPerBlockRound(t *testing.T) {
	const blocks, rounds, shards = 40, 32, 2
	reg := metrics.New()
	cfg := baseConfig(testNet(blocks), rounds)
	cfg.Shards = shards
	cfg.WALDir = t.TempDir()
	cfg.Metrics = reg
	runStudy(t, cfg)

	snap := reg.Snapshot()
	got := snap.Counter("monitor.wal_bytes")
	want := int64(shards*rounds*(walFrameSize+recordHeaderSize) + blocks*rounds*deltaSize)
	if got != want {
		t.Fatalf("wal bytes = %d, want %d", got, want)
	}
	if n := snap.Counter("monitor.wal_records"); n != shards*rounds {
		t.Fatalf("wal records = %d, want %d", n, shards*rounds)
	}
	if per := float64(got) / (blocks * rounds); per > 115 {
		t.Fatalf("%.1f WAL bytes per block-round, budget 115", per)
	}
}
