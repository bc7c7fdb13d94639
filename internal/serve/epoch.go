package serve

// epoch.go — the immutable read-side snapshot. An Epoch is sealed once,
// pointing at every shard's current column set, and then only ever read: no
// set an epoch points at is written again, so every query method is safe
// for unbounded concurrency with zero locks. Queries walk the sets in shard
// order, which is the global block order. Aggregations take a context and
// poll it on a fixed stride: a request deadline cuts a full-world rollup off
// mid-scan with a typed error instead of either ignoring the deadline or
// returning a partial result.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
)

// ctxStride is how many blocks an aggregation scans between context polls —
// large enough to keep the poll off the profile, small enough that a
// deadline lands within microseconds.
const ctxStride = 8192

// Epoch is one sealed copy-on-write snapshot of the monitored world.
type Epoch struct {
	// Rounds is the epoch's floor: every block reflects at least this many
	// committed rounds (quarantined shards are frozen below it).
	Rounds int
	// MaxRounds is the most advanced shard's committed round count at seal
	// time; per-block freshness lies in [Rounds, MaxRounds].
	MaxRounds int
	// TotalRounds is the campaign length.
	TotalRounds int
	// Time is the virtual timestamp of round Rounds-1.
	Time time.Time
	// Start is the campaign's virtual epoch.
	Start time.Time

	// segs are the shards' column sets in shard order: each sorted by id,
	// and together the global sorted block order. None is empty.
	segs   []*colSet
	blocks int
}

// BlockStatus is one block's queryable state.
type BlockStatus struct {
	ID    string  `json:"id"`
	Avail float64 `json:"avail"`
	Long  float64 `json:"long"`
	Down  bool    `json:"down"`
	// FailedRounds counts rounds with no usable observation.
	FailedRounds int `json:"failed_rounds,omitempty"`
	// Class is the study's diurnal class of the committed series at the
	// last UTC day end: unknown (under two whole days), non-diurnal,
	// relaxed, or strict.
	Class string `json:"class"`
	// Phase, PeakUTCHour, SleepUTCHour are present for diurnal blocks only.
	// Phase is the 1 cycle/day FFT phase anchored at midnight UTC, as the
	// study's; PeakUTCHour is core.UTCPeakHour of it, SleepUTCHour
	// twelve hours later.
	Phase        *float64 `json:"phase,omitempty"`
	PeakUTCHour  *float64 `json:"peak_utc_hour,omitempty"`
	SleepUTCHour *float64 `json:"sleep_utc_hour,omitempty"`
}

// Len reports the number of blocks in the epoch.
func (ep *Epoch) Len() int { return ep.blocks }

// seek returns where id is, or would be, in global block order: the first
// segment whose last id is at least id, and the index of the first id at
// least id inside it. k == len(ep.segs) when id is above every block.
func (ep *Epoch) seek(id netsim.BlockID) (k, i int) {
	k = sort.Search(len(ep.segs), func(k int) bool {
		ids := ep.segs[k].ids
		return ids[len(ids)-1] >= id
	})
	if k < len(ep.segs) {
		ids := ep.segs[k].ids
		i = sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	}
	return k, i
}

// find locates block id: its segment and its index there.
func (ep *Epoch) find(id netsim.BlockID) (*colSet, int, bool) {
	k, i := ep.seek(id)
	if k == len(ep.segs) || ep.segs[k].ids[i] != id {
		return nil, 0, false
	}
	return ep.segs[k], i, true
}

// statusAt builds the exported view of block i of set s.
func (ep *Epoch) statusAt(s *colSet, i int) BlockStatus {
	bs := BlockStatus{
		ID:           s.ids[i].String(),
		Avail:        s.avail[i],
		Long:         s.long[i],
		Down:         s.down[i],
		FailedRounds: int(s.failed[i]),
		Class:        s.class[i].String(),
	}
	if s.class[i].Diurnal() {
		phase := s.phase[i]
		peak, sleep := peakSleepUTC(phase)
		bs.Phase, bs.PeakUTCHour, bs.SleepUTCHour = &phase, &peak, &sleep
	}
	return bs
}

// Lookup finds one block by id (binary search over the sorted sets).
func (ep *Epoch) Lookup(id netsim.BlockID) (BlockStatus, bool) {
	s, i, ok := ep.find(id)
	if !ok {
		return BlockStatus{}, false
	}
	return ep.statusAt(s, i), true
}

// appendStatus appends block i of set s as json.Marshal(ep.statusAt(s, i))
// would, without building the BlockStatus; ok is false, and nothing is
// appended, when a value is not finite.
func (ep *Epoch) appendStatus(b []byte, s *colSet, i int) ([]byte, bool) {
	avail, long, class := s.avail[i], s.long[i], s.class[i]
	diurnal := class.Diurnal()
	var phase, peak, sleep float64
	if diurnal {
		phase = s.phase[i]
		peak, sleep = peakSleepUTC(phase)
	}
	for _, f := range [...]float64{avail, long, phase, peak, sleep} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return b, false
		}
	}
	id := s.ids[i]
	b = append(b, `{"id":"`...)
	b = strconv.AppendUint(b, uint64(byte(id>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(id>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(id>>8)), 10)
	b = append(b, `/24","avail":`...)
	b = monitor.AppendJSONFloat(b, avail)
	b = append(b, `,"long":`...)
	b = monitor.AppendJSONFloat(b, long)
	b = append(b, `,"down":`...)
	b = strconv.AppendBool(b, s.down[i])
	if f := s.failed[i]; f != 0 {
		b = append(b, `,"failed_rounds":`...)
		b = strconv.AppendInt(b, int64(f), 10)
	}
	b = append(b, `,"class":"`...)
	b = append(b, class.String()...)
	b = append(b, '"')
	if diurnal {
		b = append(b, `,"phase":`...)
		b = monitor.AppendJSONFloat(b, phase)
		b = append(b, `,"peak_utc_hour":`...)
		b = monitor.AppendJSONFloat(b, peak)
		b = append(b, `,"sleep_utc_hour":`...)
		b = monitor.AppendJSONFloat(b, sleep)
	}
	return append(b, '}'), true
}

// peakSleepUTC maps a midnight-anchored phase to the UTC hours of peak
// activity and of sleep (peak + 12h).
func peakSleepUTC(phase float64) (peak, sleep float64) {
	peak = core.UTCPeakHour(phase)
	return peak, math.Mod(peak+12, 24)
}

// Summary is the full-world rollup.
type Summary struct {
	Blocks int `json:"blocks"`
	// Epoch is the snapshot's round floor; Time its virtual timestamp.
	Epoch int       `json:"epoch"`
	Time  time.Time `json:"time"`
	Down  int       `json:"down"`
	// MeanAvail is the mean short-term availability across blocks.
	MeanAvail float64 `json:"mean_avail"`
	// Class counts.
	Unknown    int `json:"unknown"`
	NonDiurnal int `json:"non_diurnal"`
	Relaxed    int `json:"relaxed"`
	Strict     int `json:"strict"`
	// FailedRounds sums failed rounds across blocks.
	FailedRounds int `json:"failed_rounds"`
}

// Summary computes the full-world rollup, aborting with the context's error
// if the deadline lands mid-scan.
func (ep *Epoch) Summary(ctx context.Context) (Summary, error) {
	s := Summary{Blocks: ep.blocks, Epoch: ep.Rounds, Time: ep.Time}
	sum := 0.0
	n := 0 // blocks scanned, across segments
	for _, seg := range ep.segs {
		for i := range seg.ids {
			if n%ctxStride == 0 && ctx.Err() != nil {
				return Summary{}, fmt.Errorf("serve: summary aborted: %w", ctx.Err())
			}
			n++
			sum += seg.avail[i]
			if seg.down[i] {
				s.Down++
			}
			s.FailedRounds += int(seg.failed[i])
			switch seg.class[i] {
			case monitor.ClassStrict:
				s.Strict++
			case monitor.ClassRelaxed:
				s.Relaxed++
			case monitor.ClassNonDiurnal:
				s.NonDiurnal++
			default:
				s.Unknown++
			}
		}
	}
	if s.Blocks > 0 {
		s.MeanAvail = sum / float64(s.Blocks)
	}
	return s, nil
}

// Range collects up to limit blocks with id in [lo, hi), optionally only
// those currently down. Truncated reports that more matches existed beyond
// the limit. The scan polls ctx like Summary.
func (ep *Epoch) Range(ctx context.Context, lo, hi netsim.BlockID, limit int, onlyDown bool) (out []BlockStatus, truncated bool, err error) {
	k, start := ep.seek(lo)
	n := 0 // blocks scanned, across segments
	for ; k < len(ep.segs); k, start = k+1, 0 {
		seg := ep.segs[k]
		for i := start; i < len(seg.ids); i++ {
			if seg.ids[i] >= hi {
				return out, false, nil
			}
			if n%ctxStride == 0 && ctx.Err() != nil {
				return nil, false, fmt.Errorf("serve: range aborted: %w", ctx.Err())
			}
			n++
			if onlyDown && !seg.down[i] {
				continue
			}
			if len(out) >= limit {
				return out, true, nil
			}
			out = append(out, ep.statusAt(seg, i))
		}
	}
	return out, false, nil
}
