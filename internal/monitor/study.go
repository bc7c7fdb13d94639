package monitor

// study.go — the deterministic export of a completed monitoring campaign.
// A Study is derived ONLY from committed per-block state, so two runs that
// commit the same rounds — one uninterrupted, one crash-recovered — encode
// to identical bytes. That byte-equality is the chaos harness's oracle.

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"sleepnet/internal/core"
)

// StudyBlock is one block's complete campaign record.
type StudyBlock struct {
	ID string `json:"id"`
	// Short is the Âs series, one value per round.
	Short []float64 `json:"short"`
	// Events are the prober's outage transitions.
	Events []core.OutageEvent `json:"events,omitempty"`
	// Estimator is the final EWMA state.
	Estimator core.EstimatorState `json:"estimator"`
	// FailedRounds counts rounds with no usable observation.
	FailedRounds int `json:"failed_rounds,omitempty"`
}

// Study is the campaign's exported result, blocks sorted by id.
type Study struct {
	Seed   uint64       `json:"seed"`
	Rounds int          `json:"rounds"`
	Blocks []StudyBlock `json:"blocks"`
}

// Study exports the campaign result. It is only defined for completed runs:
// a drained or halted run has committed state on disk but no full series to
// report — resume it (same WALDir) to completion first.
func (r *Result) Study() (*Study, error) {
	if !r.Completed {
		return nil, fmt.Errorf("monitor: study requires a completed run")
	}
	var st *Study
	for _, s := range r.shards {
		if st == nil {
			st = &Study{Seed: s.m.cfg.Seed, Rounds: s.m.cfg.Rounds}
		}
		// Shards hold contiguous slices of the global sorted order, so
		// walking them in index order yields globally sorted blocks.
		for _, mon := range s.mons {
			st.Blocks = append(st.Blocks, StudyBlock{
				ID:           mon.id.String(),
				Short:        mon.short,
				Events:       mon.events,
				Estimator:    mon.est.State(),
				FailedRounds: mon.failed,
			})
		}
	}
	return st, nil
}

// Encode returns the study as json.MarshalIndent(s, "", " ") writes it,
// plus a final newline: the same field names, order, omissions, null for a
// nil series, float digits and string escapes, and an error with no bytes
// for a NaN or ±Inf, which encoding/json refuses too. Unlike MarshalIndent,
// whose reflection, compact pass and indent pass hold about three times the
// document, it makes one allocation: a buffer of encodedCap bytes, about
// 1.3 times the document on measured series, that it never outgrows.
// FuzzStudyEncode holds the bytes to MarshalIndent's;
// TestStudyEncodeAllocs holds it to the one allocation; the pinned study
// digests of TestChaosEquivalence and TestReplayCoversEveryOutcome hold
// it to the bytes every earlier campaign was written in.
func (s *Study) Encode() ([]byte, error) {
	b := make([]byte, 0, s.encodedCap())
	b = append(b, "{\n \"seed\": "...)
	b = strconv.AppendUint(b, s.Seed, 10)
	b = append(b, ",\n \"rounds\": "...)
	b = strconv.AppendInt(b, int64(s.Rounds), 10)
	b = append(b, ",\n \"blocks\": "...)
	switch {
	case s.Blocks == nil:
		b = append(b, "null"...)
	case len(s.Blocks) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range s.Blocks {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendStudyBlock(b, &s.Blocks[i]); err != nil {
				return nil, fmt.Errorf("monitor: study encode: block %d: %w", i, err)
			}
		}
		b = append(b, "\n ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// The widest values a slot can hold: an int is at most 20 bytes
// (-9223372036854775808), a float64 at most 25 — a negative 17-digit value
// in [1e-6, 1e-5), written in 'f' form (-0.0000010000000000000002).
const (
	maxIntLen   = 20
	maxFloatLen = 25
)

// estimatorFields are core.EstimatorState's float fields in declaration
// order, untagged, so encoding/json names them as declared.
var estimatorFields = [...]string{"AlphaS", "AlphaL", "PS", "TS", "PL", "TL", "DL"}

func estimatorValues(e *core.EstimatorState) [len(estimatorFields)]float64 {
	return [...]float64{e.AlphaS, e.AlphaL, e.PS, e.TS, e.PL, e.TL, e.DL}
}

// Upper bounds of appendStudyBlock's output: its fixed text, with every
// value slot at its widest and every separator counted.
const (
	// blockFixed: a block's braces and keys, its id's quotes, the short
	// list's brackets (wider than null), the estimator object, failed_rounds
	// and the comma after the block.
	blockFixed = len("\n  {\n   \"id\": \"\"") +
		len(",\n   \"short\": [\n   ]") +
		len(",\n   \"estimator\": {") +
		len(estimatorFields)*(len("\n    \"\": ,")+maxFloatLen) + len("AlphaS"+"AlphaL"+"PS"+"TS"+"PL"+"TL"+"DL") +
		len("\n    \"Rounds\": \n   }") + maxIntLen +
		len(",\n   \"failed_rounds\": ") + maxIntLen +
		len("\n  },")
	// shortItem: one value of the short list, with its comma.
	shortItem = len("\n    ,") + maxFloatLen
	// eventsFixed: the events key and brackets, when there are events.
	eventsFixed = len(",\n   \"events\": [\n   ]")
	// eventItem: one event object, with its comma.
	eventItem = len("\n    {\n     \"Round\": ,\n     \"Down\": false\n    },") + maxIntLen
)

// encodedCap bounds Encode's output from above, so Encode can allocate its
// buffer once: the study's fixed text with seed and rounds at their widest,
// and per block its fixed part, its id escaped at six bytes a byte (\u00XX,
// or \ufffd for a byte of invalid UTF-8), and its series and events.
func (s *Study) encodedCap() int {
	n := len("{\n \"seed\": ,\n \"rounds\": ,\n \"blocks\": null\n}\n") + 2*maxIntLen
	for i := range s.Blocks {
		blk := &s.Blocks[i]
		n += blockFixed + 6*len(blk.ID) + shortItem*len(blk.Short)
		if len(blk.Events) > 0 {
			n += eventsFixed + eventItem*len(blk.Events)
		}
	}
	return n
}

// appendStudyBlock appends one block at the indentation MarshalIndent gives
// an element of the blocks list, or fails on a float encoding/json refuses.
func appendStudyBlock(b []byte, blk *StudyBlock) ([]byte, error) {
	b = append(b, "\n  {\n   \"id\": "...)
	b = appendJSONString(b, blk.ID)
	b = append(b, ",\n   \"short\": "...)
	switch {
	case blk.Short == nil:
		b = append(b, "null"...)
	case len(blk.Short) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, v := range blk.Short {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			if !finite(v) {
				return nil, unsupported(v)
			}
			b = AppendJSONFloat(b, v)
		}
		b = append(b, "\n   ]"...)
	}
	if len(blk.Events) > 0 {
		b = append(b, ",\n   \"events\": ["...)
		for i, ev := range blk.Events {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n     \"Round\": "...)
			b = strconv.AppendInt(b, int64(ev.Round), 10)
			b = append(b, ",\n     \"Down\": "...)
			b = strconv.AppendBool(b, ev.Down)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n   ]"...)
	}
	b = append(b, ",\n   \"estimator\": {"...)
	for i, v := range estimatorValues(&blk.Estimator) {
		if !finite(v) {
			return nil, unsupported(v)
		}
		b = append(b, "\n    \""...)
		b = append(b, estimatorFields[i]...)
		b = append(b, "\": "...)
		b = AppendJSONFloat(b, v)
		b = append(b, ',')
	}
	b = append(b, "\n    \"Rounds\": "...)
	b = strconv.AppendInt(b, int64(blk.Estimator.Rounds), 10)
	b = append(b, "\n   }"...)
	if blk.FailedRounds != 0 {
		b = append(b, ",\n   \"failed_rounds\": "...)
		b = strconv.AppendInt(b, int64(blk.FailedRounds), 10)
	}
	return append(b, "\n  }"...), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// unsupported is the error for a float JSON cannot hold, worded as
// encoding/json words it.
func unsupported(f float64) error {
	return fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
}

// AppendJSONFloat appends a finite f the way encoding/json writes a
// float64: the shortest decimal that round-trips, in exponent form below
// 1e-6 and from 1e21 on, with an exponent's leading zero dropped (1e-7, not
// 1e-07), and -0 as -0. It is the one copy of those rules: the study export
// and serve's /v1/block answer both write their numbers with it.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted the way encoding/json writes a string
// with HTML escaping on: \" and \\; \b, \f, \n, \r and \t; \u00XX for the
// other control bytes and for <, > and &; \ufffd for each byte of invalid
// UTF-8; \u2028 and \u2029 escaped; everything else as is.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		esc := ""
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		}
		if esc != "" {
			b = append(b, s[start:i]...)
			b = append(b, esc...)
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
