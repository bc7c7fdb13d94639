package serve

// epoch.go — the immutable read-side snapshot. An Epoch is sealed once (all
// columns copied, classification among them) and then only ever read, so
// every query method is safe for unbounded concurrency with zero locks.
// Aggregations take a context and poll it on a fixed stride: a request
// deadline cuts a full-world rollup off mid-scan with a typed error instead
// of either ignoring the deadline or returning a partial result.

import (
	"context"
	"fmt"
	"sort"
	"time"

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

	ids    []netsim.BlockID
	avail  []float64
	long   []float64
	down   []bool
	failed []int32
	class  []DiurnalClass
	phase  []float64 // 0 outside the diurnal classes

	// startHour is Start's UTC time-of-day: with a block's phase it gives
	// the peak and sleep hours, so neither is stored.
	startHour float64
}

// BlockStatus is one block's queryable state.
type BlockStatus struct {
	ID    string  `json:"id"`
	Avail float64 `json:"avail"`
	Long  float64 `json:"long"`
	Down  bool    `json:"down"`
	// FailedRounds counts rounds with no usable observation.
	FailedRounds int `json:"failed_rounds,omitempty"`
	// Class is the streaming diurnal class: unknown, non-diurnal, relaxed,
	// or strict.
	Class string `json:"class"`
	// Phase, PeakUTCHour, SleepUTCHour are present for diurnal blocks only.
	Phase        *float64 `json:"phase,omitempty"`
	PeakUTCHour  *float64 `json:"peak_utc_hour,omitempty"`
	SleepUTCHour *float64 `json:"sleep_utc_hour,omitempty"`
}

// Len reports the number of blocks in the epoch.
func (ep *Epoch) Len() int { return len(ep.ids) }

// statusAt builds the exported view of block i.
func (ep *Epoch) statusAt(i int) BlockStatus {
	s := BlockStatus{
		ID:           ep.ids[i].String(),
		Avail:        ep.avail[i],
		Long:         ep.long[i],
		Down:         ep.down[i],
		FailedRounds: int(ep.failed[i]),
		Class:        ep.class[i].String(),
	}
	if c := ep.class[i]; c == ClassStrict || c == ClassRelaxed {
		phase := ep.phase[i]
		peak, sleep := peakSleepUTC(phase, ep.startHour)
		s.Phase, s.PeakUTCHour, s.SleepUTCHour = &phase, &peak, &sleep
	}
	return s
}

// Lookup finds one block by id (binary search over the sorted column).
func (ep *Epoch) Lookup(id netsim.BlockID) (BlockStatus, bool) {
	i := sort.Search(len(ep.ids), func(j int) bool { return ep.ids[j] >= id })
	if i >= len(ep.ids) || ep.ids[i] != id {
		return BlockStatus{}, false
	}
	return ep.statusAt(i), true
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
	// Class counts from the streaming detector.
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
	s := Summary{Blocks: len(ep.ids), Epoch: ep.Rounds, Time: ep.Time}
	sum := 0.0
	for i := range ep.ids {
		if i%ctxStride == 0 && ctx.Err() != nil {
			return Summary{}, fmt.Errorf("serve: summary aborted: %w", ctx.Err())
		}
		sum += ep.avail[i]
		if ep.down[i] {
			s.Down++
		}
		s.FailedRounds += int(ep.failed[i])
		switch ep.class[i] {
		case ClassStrict:
			s.Strict++
		case ClassRelaxed:
			s.Relaxed++
		case ClassNonDiurnal:
			s.NonDiurnal++
		default:
			s.Unknown++
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
	start := sort.Search(len(ep.ids), func(j int) bool { return ep.ids[j] >= lo })
	for i := start; i < len(ep.ids) && ep.ids[i] < hi; i++ {
		if (i-start)%ctxStride == 0 && ctx.Err() != nil {
			return nil, false, fmt.Errorf("serve: range aborted: %w", ctx.Err())
		}
		if onlyDown && !ep.down[i] {
			continue
		}
		if len(out) >= limit {
			return out, true, nil
		}
		out = append(out, ep.statusAt(i))
	}
	return out, false, nil
}
