package monitor

// record.go — the serialized forms the WAL and snapshot files carry, and
// their codec (on-disk format v2).
//
// A round record is self-contained: it holds the *post-round* state of
// every block the shard probed (prober memory, estimator EWMAs, the Âs
// value appended to the series, and any outage transition), so recovery is
// latest snapshot + ordered replay of later records, with no dependence on
// re-running probes for committed rounds. Snapshots reuse the WAL's frame
// (header + one CRC-framed record), so one decoder — and one fuzz target —
// covers both.
//
// Payloads are a hand-written fixed-layout binary: element counts up front,
// integers big-endian (the frame header's byte order) at fixed widths — a Go
// int travels as 8 bytes, so no value is ever narrowed — floats as their
// IEEE-754 bits (a round trip is bit-exact for every value, NaN payloads
// included), bools as one byte that must be 0 or 1. The encoder appends into
// a caller-owned buffer and never allocates once that buffer is warm. The
// decoder trusts nothing the CRC let through: a claimed count times the
// fixed element size must fit the bytes that remain (equal them, for a
// record) before anything is allocated, bools and event codes are range
// checked, trailing bytes are refused, and every failure is chained to
// ErrCorrupt. DESIGN §12 has the byte-layout tables; the golden files under
// testdata/ pin them, so a layout edit fails TestFormatPinned instead of
// silently orphaning the directories in the field — bump walVersion with it.
// meta.json alone stays JSON: it is written once per campaign and read by
// humans.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/durable"
	"sleepnet/internal/netsim"
	"sleepnet/internal/trinocular"
)

// Outage event codes in a blockDelta.
const (
	eventNone = 0
	eventDown = 1 // up -> down transition this round
	eventUp   = 2 // down -> up transition this round
)

// blockDelta is one block's post-round committed state.
type blockDelta struct {
	Prober trinocular.BlockState
	Est    core.EstimatorState
	// Short is the Âs value appended to the block's series this round.
	Short float64
	// Event is eventNone/eventDown/eventUp.
	Event int
	// Failed marks a round that produced no usable observation.
	Failed bool
}

// walRecord is one committed shard round.
type walRecord struct {
	Round  int
	Deltas []blockDelta
}

// blockSnapshot is one block's cumulative state at a snapshot boundary;
// Prober.ID names the block.
type blockSnapshot struct {
	Prober trinocular.BlockState
	Est    core.EstimatorState
	Short  []float64
	Events []core.OutageEvent
	Failed int
}

// shardSnapshot is the full committed state of one shard after Round
// rounds. Blocks are sorted by block id, so two snapshots of the same state
// are byte-identical.
type shardSnapshot struct {
	Shard  int
	Round  int // rounds covered: [0, Round)
	Blocks []blockSnapshot
}

// Fixed element sizes of the v2 layout, in bytes.
const (
	// stateSize is what a delta and a snapshot block both start with: the
	// prober state (ID Belief Up Round Pos Seq DownStreak) and the estimator
	// state (AlphaS AlphaL PS TS PL TL DL, Rounds).
	stateSize        = (4 + 8 + 1 + 8 + 8 + 2 + 8) + (7*8 + 8)
	deltaSize        = stateSize + 8 + 1 + 1 // + Short Event Failed
	recordHeaderSize = 8 + 4                 // Round, delta count
	snapHeaderSize   = 4 + 8 + 4             // Shard Round, block count
	snapBlockSize    = stateSize + 8 + 4 + 4 // + Failed, series and event counts
	eventSize        = 8 + 1                 // Round Down
)

var be = binary.BigEndian

// grow extends b by n bytes and returns it with the new n-byte window.
func grow(b []byte, n int) (out, window []byte) {
	l := len(b)
	b = slices.Grow(b, n)[:l+n]
	return b, b[l:]
}

func putBool(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func getBool(b byte, what string) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("monitor: %s byte %#x is not a bool: %w", what, b, ErrCorrupt)
	}
	return b == 1, nil
}

func putInt(p []byte, v int) { be.PutUint64(p, uint64(int64(v))) }
func getInt(p []byte) int    { return int(int64(be.Uint64(p))) }

func putFloat(p []byte, v float64) { be.PutUint64(p, math.Float64bits(v)) }
func getFloat(p []byte) float64    { return math.Float64frombits(be.Uint64(p)) }

// putState writes a block's prober and estimator state into p[:stateSize].
func putState(p []byte, ps *trinocular.BlockState, es *core.EstimatorState) {
	_ = p[stateSize-1]
	be.PutUint32(p[0:], uint32(ps.ID))
	putFloat(p[4:], ps.Belief)
	p[12] = putBool(ps.Up)
	putInt(p[13:], ps.Round)
	putInt(p[21:], ps.Pos)
	be.PutUint16(p[29:], ps.Seq)
	putInt(p[31:], ps.DownStreak)
	putFloat(p[39:], es.AlphaS)
	putFloat(p[47:], es.AlphaL)
	putFloat(p[55:], es.PS)
	putFloat(p[63:], es.TS)
	putFloat(p[71:], es.PL)
	putFloat(p[79:], es.TL)
	putFloat(p[87:], es.DL)
	putInt(p[95:], es.Rounds)
}

// getState reads what putState wrote.
func getState(p []byte, ps *trinocular.BlockState, es *core.EstimatorState) error {
	_ = p[stateSize-1]
	up, err := getBool(p[12], "prober up")
	if err != nil {
		return err
	}
	*ps = trinocular.BlockState{
		ID:         netsim.BlockID(be.Uint32(p[0:])),
		Belief:     getFloat(p[4:]),
		Up:         up,
		Round:      getInt(p[13:]),
		Pos:        getInt(p[21:]),
		Seq:        be.Uint16(p[29:]),
		DownStreak: getInt(p[31:]),
	}
	*es = core.EstimatorState{
		AlphaS: getFloat(p[39:]), AlphaL: getFloat(p[47:]),
		PS: getFloat(p[55:]), TS: getFloat(p[63:]),
		PL: getFloat(p[71:]), TL: getFloat(p[79:]),
		DL:     getFloat(p[87:]),
		Rounds: getInt(p[95:]),
	}
	return nil
}

// appendRecordHeader starts a round-record payload; exactly n appendDelta
// calls complete it.
//
//lint:hotpath: per-round commit path, 0 allocs/op warm, pinned by TestMonitorRoundAllocFree
func appendRecordHeader(b []byte, round, n int) []byte {
	b, p := grow(b, recordHeaderSize)
	putInt(p[0:], round)
	be.PutUint32(p[8:], uint32(n))
	return b
}

// appendDelta appends one block's post-round state to a record payload.
//
//lint:hotpath: per block per round on the commit path, 0 allocs/op warm
func appendDelta(b []byte, d *blockDelta) []byte {
	b, p := grow(b, deltaSize)
	putState(p, &d.Prober, &d.Est)
	putFloat(p[stateSize:], d.Short)
	p[stateSize+8] = byte(d.Event)
	p[stateSize+9] = putBool(d.Failed)
	return b
}

// decodeRecord parses one WAL round-record payload into rec, reusing its
// Deltas capacity, with the structural checks the replay path relies on.
// On error rec holds garbage.
func decodeRecord(payload []byte, rec *walRecord) error {
	if len(payload) < recordHeaderSize {
		return fmt.Errorf("monitor: record header truncated (%d bytes): %w", len(payload), ErrCorrupt)
	}
	rec.Round = getInt(payload[0:])
	n := be.Uint32(payload[8:])
	body := payload[recordHeaderSize:]
	if uint64(n)*deltaSize != uint64(len(body)) {
		return fmt.Errorf("monitor: record claims %d blocks of %d bytes, body has %d: %w", n, deltaSize, len(body), ErrCorrupt)
	}
	if rec.Round < 0 {
		return fmt.Errorf("monitor: record round %d negative: %w", rec.Round, ErrCorrupt)
	}
	rec.Deltas = slices.Grow(rec.Deltas[:0], int(n))[:n]
	for i := range rec.Deltas {
		d, p := &rec.Deltas[i], body[i*deltaSize:]
		err := getState(p, &d.Prober, &d.Est)
		if err != nil {
			return err
		}
		d.Short = getFloat(p[stateSize:])
		if d.Event = int(p[stateSize+8]); d.Event > eventUp {
			return fmt.Errorf("monitor: record event code %d unknown: %w", d.Event, ErrCorrupt)
		}
		if d.Failed, err = getBool(p[stateSize+9], "record failed"); err != nil {
			return err
		}
	}
	return nil
}

// snapshotPayloadSize is the exact encoded size of s's payload.
func snapshotPayloadSize(s *shardSnapshot) int {
	n := snapHeaderSize + len(s.Blocks)*snapBlockSize
	for i := range s.Blocks {
		n += 8*len(s.Blocks[i].Short) + eventSize*len(s.Blocks[i].Events)
	}
	return n
}

// encodeSnapshot frames a snapshot as a one-record segment image, written
// over buf (whose capacity is reused) in one presized pass.
func encodeSnapshot(buf []byte, s *shardSnapshot) []byte {
	hdr := encodeSegmentHeader(s.Shard)
	buf = slices.Grow(buf[:0], walHeaderSize+walFrameSize+snapshotPayloadSize(s))
	buf = beginFrame(append(buf, hdr[:]...))
	buf, p := grow(buf, snapHeaderSize)
	be.PutUint32(p[0:], uint32(s.Shard))
	putInt(p[4:], s.Round)
	be.PutUint32(p[12:], uint32(len(s.Blocks)))
	for i := range s.Blocks {
		bs := &s.Blocks[i]
		buf, p = grow(buf, snapBlockSize+8*len(bs.Short)+eventSize*len(bs.Events))
		putState(p, &bs.Prober, &bs.Est)
		putInt(p[stateSize:], bs.Failed)
		be.PutUint32(p[stateSize+8:], uint32(len(bs.Short)))
		be.PutUint32(p[stateSize+12:], uint32(len(bs.Events)))
		p = p[snapBlockSize:]
		for j, v := range bs.Short {
			putFloat(p[8*j:], v)
		}
		p = p[8*len(bs.Short):]
		for j, ev := range bs.Events {
			putInt(p[eventSize*j:], ev.Round)
			p[eventSize*j+8] = putBool(ev.Down)
		}
	}
	finishFrame(buf, walHeaderSize)
	return buf
}

// decodeSnapshot parses a snapshot file image. Any damage — framing, CRC,
// record count, or payload structure — is ErrCorrupt: a snapshot is written
// atomically, so unlike a WAL tail there is no benign way for one to be
// half-written.
func decodeSnapshot(data []byte) (*shardSnapshot, error) {
	hdrShard, recs, _, damage := decodeSegment(data)
	if damage != nil {
		return nil, damage
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("monitor: snapshot has %d records, want 1: %w", len(recs), ErrCorrupt)
	}
	p := recs[0]
	if len(p) < snapHeaderSize {
		return nil, fmt.Errorf("monitor: snapshot header truncated (%d bytes): %w", len(p), ErrCorrupt)
	}
	s := &shardSnapshot{Shard: int(be.Uint32(p[0:])), Round: getInt(p[4:])}
	n := be.Uint32(p[12:])
	p = p[snapHeaderSize:]
	if s.Shard != hdrShard {
		return nil, fmt.Errorf("monitor: snapshot for shard %d under a shard %d header: %w", s.Shard, hdrShard, ErrCorrupt)
	}
	if s.Round < 0 {
		return nil, fmt.Errorf("monitor: snapshot round %d negative: %w", s.Round, ErrCorrupt)
	}
	if uint64(n)*snapBlockSize > uint64(len(p)) {
		return nil, fmt.Errorf("monitor: snapshot claims %d blocks, %d bytes remain: %w", n, len(p), ErrCorrupt)
	}
	s.Blocks = make([]blockSnapshot, n)
	for i := range s.Blocks {
		bs := &s.Blocks[i]
		if len(p) < snapBlockSize {
			return nil, fmt.Errorf("monitor: snapshot block %d truncated: %w", i, ErrCorrupt)
		}
		if err := getState(p, &bs.Prober, &bs.Est); err != nil {
			return nil, err
		}
		if i > 0 && bs.Prober.ID <= s.Blocks[i-1].Prober.ID {
			return nil, fmt.Errorf("monitor: snapshot blocks out of order: %w", ErrCorrupt)
		}
		bs.Failed = getInt(p[stateSize:])
		nShort, nEvents := be.Uint32(p[stateSize+8:]), be.Uint32(p[stateSize+12:])
		p = p[snapBlockSize:]
		if 8*uint64(nShort)+eventSize*uint64(nEvents) > uint64(len(p)) {
			return nil, fmt.Errorf("monitor: snapshot block %s claims %d values and %d events, %d bytes remain: %w",
				bs.Prober.ID, nShort, nEvents, len(p), ErrCorrupt)
		}
		bs.Short = make([]float64, nShort)
		for j := range bs.Short {
			bs.Short[j] = getFloat(p[8*j:])
		}
		p = p[8*nShort:]
		bs.Events = make([]core.OutageEvent, nEvents)
		for j := range bs.Events {
			down, err := getBool(p[eventSize*j+8], "snapshot event down")
			if err != nil {
				return nil, err
			}
			bs.Events[j] = core.OutageEvent{Round: getInt(p[eventSize*j:]), Down: down}
		}
		p = p[eventSize*nEvents:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("monitor: snapshot has %d trailing bytes: %w", len(p), ErrCorrupt)
	}
	return s, nil
}

// ErrMismatch reports a WAL directory written by a different campaign
// (seed, schedule, or block set): resuming from it would splice two
// incompatible histories.
var ErrMismatch = errors.New("monitor: wal belongs to a different campaign")

// walMeta identifies the campaign a WAL directory belongs to.
type walMeta struct {
	Magic      string
	Version    int
	Seed       uint64
	StartNanos int64
	PeriodNs   int64
	Rounds     int
	Shards     int
	NumBlocks  int
	BlocksCRC  uint32
}

const metaMagic = "SLPMON01"

// blocksCRC fingerprints the monitored block set (order-sensitive over the
// sorted ids).
func blocksCRC(ids []netsim.BlockID) uint32 {
	var buf [4]byte
	crc := crc32.Checksum(nil, castagnoli)
	for _, id := range ids {
		binary.BigEndian.PutUint32(buf[:], uint32(id))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

func (m *walMeta) equal(o *walMeta) bool {
	return m.Magic == o.Magic && m.Version == o.Version && m.Seed == o.Seed &&
		m.StartNanos == o.StartNanos && m.PeriodNs == o.PeriodNs &&
		m.Rounds == o.Rounds && m.Shards == o.Shards &&
		m.NumBlocks == o.NumBlocks && m.BlocksCRC == o.BlocksCRC
}

// checkOrWriteMeta guards a WAL root: a fresh directory gets the campaign's
// identity written atomically; an existing one must match it exactly.
func checkOrWriteMeta(path string, want walMeta) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		out, merr := json.Marshal(want)
		if merr != nil {
			return fmt.Errorf("monitor: meta encode: %w", merr)
		}
		return durable.WriteFileAtomic(path, out, 0o644)
	}
	if err != nil {
		return fmt.Errorf("monitor: meta: %w", err)
	}
	var got walMeta
	if uerr := json.Unmarshal(data, &got); uerr != nil {
		return fmt.Errorf("monitor: meta decode: %v: %w", uerr, ErrCorrupt)
	}
	if !got.equal(&want) {
		return fmt.Errorf("monitor: meta %s: %w", path, ErrMismatch)
	}
	return nil
}

// metaFor builds the identity record for a monitor configuration.
func metaFor(seed uint64, start time.Time, period time.Duration, rounds, shards int, ids []netsim.BlockID) walMeta {
	return walMeta{
		Magic:      metaMagic,
		Version:    walVersion,
		Seed:       seed,
		StartNanos: start.UnixNano(),
		PeriodNs:   int64(period),
		Rounds:     rounds,
		Shards:     shards,
		NumBlocks:  len(ids),
		BlocksCRC:  blocksCRC(ids),
	}
}
