package monitor

// study_test.go — the study export against its oracle, json.MarshalIndent:
// byte equality on hostile studies, one allocation that is never outgrown,
// and the encoder's throughput.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
)

// studyFloats are the values a float slot of a fuzzed study takes from an
// even tag byte: the edges of encoding/json's float rules and the ones it
// refuses. An odd tag reads the next 8 bytes as the float's bits instead.
var studyFloats = [...]float64{
	0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, -1.0000000000000002e-06, 0.1,
	9.99e20, 1e21, -1e21, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// studyReader deals a fuzzer's bytes out to a study's fields; an exhausted
// input reads as zeros.
type studyReader []byte

func (r *studyReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *studyReader) u64() uint64 {
	var w [8]byte
	*r = (*r)[copy(w[:], *r):]
	return binary.LittleEndian.Uint64(w[:])
}

func (r *studyReader) float() float64 {
	if t := r.byte(); t%2 == 0 {
		return studyFloats[int(t/2)%len(studyFloats)]
	}
	return math.Float64frombits(r.u64())
}

// count is a list's length class: 0 nil, 1 empty, then 1 to most items.
func (r *studyReader) count(most int) (n int, isNil bool) {
	c := int(r.byte()) % (most + 2)
	return max(c-1, 0), c == 0
}

// decodeStudy builds a study of 0–4 blocks from fuzz input: nil, empty or
// non-empty lists, failed_rounds zero or not, any float bit pattern and any
// id bytes.
func decodeStudy(data []byte) *Study {
	r := studyReader(data)
	st := &Study{Seed: r.u64(), Rounds: int(r.u64())}
	n, isNil := r.count(4)
	if !isNil {
		st.Blocks = make([]StudyBlock, n)
	}
	for i := range st.Blocks {
		blk := &st.Blocks[i]
		id := make([]byte, r.byte()%12)
		for k := range id {
			id[k] = r.byte()
		}
		blk.ID = string(id)
		if n, isNil := r.count(16); !isNil {
			blk.Short = make([]float64, n)
			for k := range blk.Short {
				blk.Short[k] = r.float()
			}
		}
		if n, isNil := r.count(3); !isNil {
			blk.Events = make([]core.OutageEvent, n)
			for k := range blk.Events {
				blk.Events[k] = core.OutageEvent{Round: int(r.u64()), Down: r.byte()%2 == 1}
			}
		}
		e := &blk.Estimator
		for _, f := range []*float64{&e.AlphaS, &e.AlphaL, &e.PS, &e.TS, &e.PL, &e.TL, &e.DL} {
			*f = r.float()
		}
		e.Rounds = int(r.u64())
		if r.byte()%2 == 1 {
			blk.FailedRounds = int(r.u64())
		}
	}
	return st
}

// studySeed writes fuzz input for decodeStudy.
type studySeed []byte

func (s studySeed) b(v ...byte) studySeed { return append(s, v...) }

func (s studySeed) u64(v uint64) studySeed { return binary.LittleEndian.AppendUint64(s, v) }

// fl writes v as its bits behind an odd tag.
func (s studySeed) fl(v float64) studySeed { return s.b(1).u64(math.Float64bits(v)) }

// block writes one block: id, short values, events, seven estimator floats
// at est, estimator rounds and failed rounds (0: omitted).
func (s studySeed) block(id string, short []float64, events int, est float64, failed uint64) studySeed {
	s = append(s.b(byte(len(id))), id...)
	if short == nil {
		s = s.b(0)
	} else {
		s = s.b(byte(len(short) + 1))
		for _, v := range short {
			s = s.fl(v)
		}
	}
	s = s.b(byte(events + 1))
	for k := 0; k < events; k++ {
		s = s.u64(uint64(k * 7)).b(byte(k))
	}
	for k := 0; k < 7; k++ {
		s = s.fl(est)
	}
	s = s.u64(262)
	if failed == 0 {
		return s.b(0)
	}
	return s.b(1).u64(failed)
}

// FuzzStudyEncode holds Encode to its oracle: for any study, its bytes are
// json.MarshalIndent(s, "", " ") plus a newline, in a buffer of exactly
// encodedCap bytes, or both fail and Encode returns no bytes.
func FuzzStudyEncode(f *testing.F) {
	head := studySeed(nil).u64(42).u64(262)
	f.Add([]byte(head.b(0)))                                 // nil blocks
	f.Add([]byte(head.b(1)))                                 // empty blocks
	f.Add([]byte(head.b(2).block("", nil, -1, 0, 0)))        // nil short, nil events
	f.Add([]byte(head.b(2).block("", []float64{}, 0, 0, 0))) // empty short, empty events
	f.Add([]byte(head.b(3).
		block("10.0.1.0/24", []float64{0.5, math.Copysign(0, -1), 5e-324, 1e-7}, 2, 1e-7, 3).
		block("10.0.2.0/24", []float64{9.99e20, 1e21, math.MaxFloat64, 1.0000000000000002e-06}, 1, -1.0000000000000002e-06, 0)))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add([]byte(head.b(2).block("x", []float64{0.25, bad}, 0, 0.5, 0)))
		f.Add([]byte(head.b(2).block("x", []float64{0.25}, 0, bad, 0)))
	}
	for _, id := range []string{"<a&b>", `q"\`, "\x00\b\f\n\r\t\x1f\x7f", "\xff\xfe", "é  ☃", "\xe2\x80"} {
		f.Add([]byte(head.b(2).block(id, []float64{1}, 0, 1, 1)))
	}
	var tags []byte // every tagged special value in one series
	for k := range studyFloats {
		tags = append(tags, byte(2*k))
	}
	f.Add([]byte(head.b(2, 0, byte(len(tags)+1)).b(tags...)))
	f.Add([]byte(head.b(5).
		block("a", []float64{1}, 0, 2, math.MaxUint64).
		block("b", nil, 3, 3, 1<<63).
		block("c", []float64{}, 1, 4, 7).
		block("d", []float64{1e-6, 1e-5, 123456789.123}, 0, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := decodeStudy(data)
		want, wantErr := json.MarshalIndent(st, "", " ")
		got, err := st.Encode()
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("MarshalIndent fails (%v), Encode does not", wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("Encode fails (%v), MarshalIndent does not", err)
		case err != nil:
			if got != nil {
				t.Fatalf("Encode failed (%v) and returned %d bytes", err, len(got))
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from MarshalIndent:\n got %q\nwant %q", got, want)
		}
		if c, n := cap(got), st.encodedCap(); c != n {
			t.Fatalf("Encode's buffer has cap %d, encodedCap is %d: it regrew or was not sized by the bound", c, n)
		}
	})
}

// syntheticStudy is a study of blocks × rounds with values of full
// precision, an outage in every fourth block and failed rounds in every
// third.
func syntheticStudy(blocks, rounds int) *Study {
	rng := rand.New(rand.NewSource(1))
	st := &Study{Seed: 42, Rounds: rounds, Blocks: make([]StudyBlock, blocks)}
	for i := range st.Blocks {
		blk := &st.Blocks[i]
		blk.ID = netsim.MakeBlockID(10, byte(i>>8), byte(i)).String()
		blk.Short = make([]float64, rounds)
		for r := range blk.Short {
			blk.Short[r] = rng.Float64()
		}
		if i%4 == 0 {
			blk.Events = []core.OutageEvent{{Round: rounds / 3, Down: true}, {Round: rounds / 2}}
		}
		blk.Estimator = core.EstimatorState{AlphaS: 0.5, AlphaL: 0.01, PS: rng.Float64(), TS: 1, PL: rng.Float64(), TL: 1, DL: 0.9, Rounds: rounds}
		if i%3 == 0 {
			blk.FailedRounds = i % 7
		}
	}
	return st
}

// TestStudyEncodeAllocs pins the export's memory contract: on a 50-block ×
// 300-round study Encode allocates once, a buffer whose capacity is
// encodedCap, so it never regrew. On a study whose every slot is at its
// widest, the bound is tight: it exceeds the output only by the commas the
// last item of each list does not write.
func TestStudyEncodeAllocs(t *testing.T) {
	st := syntheticStudy(50, 300)
	out, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if c, n := cap(out), st.encodedCap(); c != n {
		t.Fatalf("cap(out) %d, encodedCap %d: the buffer regrew", c, n)
	}
	if a := testing.AllocsPerRun(5, func() {
		if _, err := st.Encode(); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("Encode made %v allocations, want 1", a)
	}

	const widest = -1.0000000000000002e-06 // maxFloatLen bytes
	est := core.EstimatorState{AlphaS: widest, AlphaL: widest, PS: widest, TS: widest, PL: widest, TL: widest, DL: widest, Rounds: math.MinInt}
	const blocks = 3
	wide := &Study{Seed: math.MaxUint64, Rounds: math.MinInt}
	for i := 0; i < blocks; i++ {
		wide.Blocks = append(wide.Blocks, StudyBlock{
			ID:           "\xff\x01<",
			Short:        []float64{widest, widest},
			Events:       []core.OutageEvent{{Round: math.MinInt}, {Round: math.MinInt}},
			Estimator:    est,
			FailedRounds: math.MinInt,
		})
	}
	out, err = wide.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Per block, the comma the short list's and the events list's last item
	// does not write; and the last block's.
	if slack := wide.encodedCap() - len(out); slack != 2*blocks+1 {
		t.Fatalf("encodedCap %d exceeds the widest study's %d bytes by %d, want %d", wide.encodedCap(), len(out), slack, 2*blocks+1)
	}
}

// BenchmarkStudyEncode exports a 1,000-block × 262-round study, the
// monitor-wal campaign's size.
func BenchmarkStudyEncode(b *testing.B) {
	st := syntheticStudy(1000, 262)
	out, err := st.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
