package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// layer names one timed boundary. Spans carry the small integer; the name
// table turns it back into "<module>.<what>" when spans are aggregated or
// written out.
type layer uint8

const (
	layDrive layer = iota // the traced drive itself; its self time is harness overhead
	layWorldGenerate
	layNetsimDeliver
	layNetsimTruth
	layTrinocularRound
	layCoreEstimator
	layCoreClassify
	layTimeseriesClean
	layAnalysisPool
	layAnalysisJoins
	layJoinCountry
	layJoinPhaseLon
	layJoinOutage
	layJoinLinkTypes
	layJoinANOVA
	layJoinOther
	numLayers
)

var layerNames = [numLayers]string{
	layDrive:           "bench.drive",
	layWorldGenerate:   "world.generate",
	layNetsimDeliver:   "netsim.deliver",
	layNetsimTruth:     "netsim.truth",
	layTrinocularRound: "trinocular.round",
	layCoreEstimator:   "core.estimator",
	layCoreClassify:    "core.classify",
	layTimeseriesClean: "timeseries.clean",
	layAnalysisPool:    "analysis.pool",
	layAnalysisJoins:   "analysis.joins",
	layJoinCountry:     "analysis.join.country",
	layJoinPhaseLon:    "analysis.join.phase_lon",
	layJoinOutage:      "analysis.join.outage",
	layJoinLinkTypes:   "analysis.join.linktypes",
	layJoinANOVA:       "analysis.join.anova",
	layJoinOther:       "analysis.join.other",
}

// span is one timed call into a layer: what, when (nanos() readings), the
// span that caused it (-1 for a root) and the unit of work it belongs to
// (the block-group index of the drive, so spans of one group share an id).
type span struct {
	Layer      layer
	Start, End int64
	Parent     int32
	Work       int32
}

// tracer keeps spans in memory until the run ends. It serves one goroutine:
// the traced drives are single-threaded by design, which is what makes the
// open-span stack a valid parent chain. A nil tracer records nothing, so the
// same drive code runs traced and untraced.
type tracer struct {
	spans []span
	open  []int32
	work  int32
}

// newTracer reserves room for the expected number of spans and touches it,
// so that neither slice growth nor first-touch page faults (several
// microseconds each on a small VM) land inside the spans being timed.
func newTracer(expect int) *tracer {
	spans := make([]span, expect)
	for i := 0; i < len(spans); i += 64 {
		spans[i].Parent = -1
	}
	return &tracer{spans: spans[:0]}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: l, Parent: parent, Work: t.work, Start: nanos()})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = nanos()
	t.open = t.open[:len(t.open)-1]
}

// setWork tags subsequently opened spans with a unit-of-work id.
func (t *tracer) setWork(w int) {
	if t != nil {
		t.work = int32(w)
	}
}

// layerTotals is one layer's aggregate over a set of spans.
type layerTotals struct {
	Count int
	Total int64 // summed span durations, ns
	Self  int64 // Total minus the time direct children cover, ns
}

// aggregate computes per-layer counts, total and self time over the spans
// from index first on (a run keeps one span list; a phase aggregates its own
// tail of it). A span's self time is its duration minus the part of its
// interval that its direct children cover. The tracer serves one goroutine
// and closes spans innermost first, so the children of one span never
// overlap each other and each is subtracted once.
func aggregate(spans []span, first int) [numLayers]layerTotals {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if p := s.Parent; p >= 0 {
			self[p] -= clip(s.Start, s.End, spans[p].Start, spans[p].End)
		}
	}
	var out [numLayers]layerTotals
	for i := first; i < len(spans); i++ {
		t := &out[spans[i].Layer]
		t.Count++
		t.Total += spans[i].End - spans[i].Start
		t.Self += self[i]
	}
	return out
}

// clip returns the length of [lo,hi) inside [min,max).
func clip(lo, hi, min, max int64) int64 {
	if lo < min {
		lo = min
	}
	if hi > max {
		hi = max
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// seconds converts summed nanoseconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// writeSpans dumps the run's spans as JSON lines: name, start and end in
// nanoseconds since the harness started, parent index (-1 for a root) and
// the workload and unit-of-work ids. Without a path it does nothing.
func writeSpans(path, workload string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID       int    `json:"id"`
			Name     string `json:"name"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			Parent   int32  `json:"parent"`
			Workload string `json:"workload"`
			Work     int32  `json:"work"`
		}{i, layerNames[s.Layer], s.Start, s.End, s.Parent, workload, s.Work}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
