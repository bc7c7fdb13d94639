// Package metrics is a dependency-free, concurrency-safe registry of
// counters and fixed-bucket histograms for the measurement
// pipeline — the continuously exported signal stream an operator of a
// weeks-long Trinocular-style collector reasons about (probes sent per
// round, retries, rate-limited rounds, breaker trips).
//
// Two properties drive the design:
//
//   - Snapshots are deterministic: instruments are reported sorted by name
//     and carry no wall-clock fields, so two same-seed runs of the fault-free
//     pipeline produce byte-identical serialized snapshots (modulo timing
//     histograms, which Snapshot.Deterministic strips). Snapshots can
//     therefore be asserted in tests and diffed across seeds.
//   - A nil registry is the fast path: every instrument method is safe (and
//     nearly free) on a nil receiver, so uninstrumented pipelines pay one
//     nil-check per event and read no clocks.
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// UnitSeconds marks a histogram as recording wall-clock durations. Such
// histograms are stripped by Snapshot.Deterministic, because their bucket
// counts depend on host speed rather than on the seeded computation.
const UnitSeconds = "seconds"

// Counter is a monotonically increasing int64. All methods are safe on a
// nil receiver (no-ops), which is how the uninstrumented path stays free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= Bounds[i]; one implicit overflow bucket counts the rest.
// Bounds are frozen at registration, so snapshots of the same registry
// layout are structurally identical. Safe on a nil receiver.
type Histogram struct {
	bounds  []float64
	unit    string
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 CAS accumulator
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Time starts a stopwatch and returns the function that stops it, recording
// the elapsed time in seconds. On a nil histogram neither end reads a clock.
func (h *Histogram) Time() func() {
	if h == nil {
		return noopStop
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

func noopStop() {}

// Sum returns the running total of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry holds named instruments. The zero value is not usable; call New.
// A nil *Registry is valid everywhere and hands out nil instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given unit and
// bucket upper bounds on first use. Bounds must be sorted ascending; they are
// copied and frozen on creation (later calls with different bounds return
// the original instrument unchanged).
func (r *Registry) Histogram(name, unit string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, unit: unit, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// ExpBuckets returns n bucket bounds starting at start, each factor times
// the previous — the standard shape for sizes and latencies.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Counts[i] counts
// observations <= Bounds[i]; the final extra entry is the overflow bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, sorted by name within each
// instrument kind. It carries no timestamps: serializing the snapshot of the
// same computation twice yields identical bytes (strip timing histograms
// with Deterministic first when the computation is timed).
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. A nil registry yields the
// zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Unit:   h.unit,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Deterministic returns a copy of the snapshot without wall-clock-derived
// content (histograms with unit "seconds"), leaving only values that are a
// pure function of the seeded computation — the part that is byte-identical
// across same-seed runs.
func (s Snapshot) Deterministic() Snapshot {
	out := Snapshot{Counters: s.Counters}
	for _, h := range s.Histograms {
		if h.Unit == UnitSeconds {
			continue
		}
		out.Histograms = append(out.Histograms, h)
	}
	return out
}

// Counter returns the value of the named counter in the snapshot (0 when
// absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Lookup returns the value of the named counter and whether it is present.
func (s Snapshot) Lookup(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Empty reports whether the snapshot holds no instruments at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Histograms) == 0
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
