package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The percentile rule: the highest percentile of the ladder with at least
// ten samples beyond it, and a refusal to report one the sample cannot bear.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, err := percentile(sorted, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990 (ten samples beyond it)", v, err)
	}
	if v, err := percentile(sorted, 0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %g, %v; want 500", v, err)
	}
	if _, err := percentile(sorted[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples was reported; only nine samples lie beyond it")
	}
}

// Quartiles must be the ones Python's statistics.quantiles(xs, n=4) gives,
// since that is what an outside checker computes from the same values.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([...], n=4) evaluated by hand with Python 3.
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{1.5, 1.3, 1.4, 1.6, 1.45, 1.55, 1.35, 1.65, 1.5, 1.42}, 1.3875, 1.475, 1.5625},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	} {
		q := summarize(c.xs)
		if !almost(q.Q1, c.q1) || !almost(q.Median, c.q2) || !almost(q.Q3, c.q3) || q.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, q, c.q1, c.q2, c.q3)
		}
	}
	if q := summarize([]float64{4}); q.Q1 != 4 || q.Median != 4 || q.Q3 != 4 || q.N != 1 {
		t.Errorf("a single sample is its own quartiles, got %+v", q)
	}
}

// The same seed gives the same request sequence; another seed another; the
// mix lands within one point of its shares; due times are evenly spaced.
func TestScheduleFromSeed(t *testing.T) {
	a := makeSchedule(42, 8000, 5, 1<<20)
	b := makeSchedule(42, 8000, 5, 1<<20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := makeSchedule(43, 8000, 5, 1<<20); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 40000 {
		t.Fatalf("8000 req/s for 5 s is %d requests, want 40000", len(a))
	}
	var counts [numReqKinds]int
	for i, r := range a {
		counts[r.kind]++
		if want := int64(i) * 125_000; r.due != want {
			t.Fatalf("request %d due at %d ns, want %d", i, r.due, want)
		}
		if r.block < 0 || r.block >= 1<<20 {
			t.Fatalf("request %d asks for block %d outside the epoch", i, r.block)
		}
	}
	for k, share := range mixShares {
		if got := float64(counts[k]) / float64(len(a)); math.Abs(got-share) > 0.01 {
			t.Errorf("kind %d has share %.4f, want %.4f within 0.01", k, got, share)
		}
	}
	if got := (schedReq{kind: reqLookup, block: 0x010203}).path(); got != "/v1/block/2.2.3" {
		t.Errorf("lookup path = %q, want /v1/block/2.2.3", got)
	}
}

// Latency is counted from the due time: a stall on one request is charged
// to the requests queued behind it, and lateness records how far behind the
// generator ran.
func TestDueTimeAccountingUnderStall(t *testing.T) {
	const gap, service, stall = 1_000_000, 200_000, 5_000_000 // ns
	sched := make([]schedReq, 10)
	for i := range sched {
		sched[i] = schedReq{due: int64(i) * gap}
	}
	clock := int64(0)
	now := func() int64 { return clock }
	wait := func(due int64) int64 {
		if clock < due {
			clock = due
		}
		return clock - due
	}
	send := func(seq int, r schedReq) bool {
		clock += service
		if seq == 2 {
			clock += stall
		}
		return true
	}
	log := newLatencyLog()
	pace(sched, 0, 1, 0, now, wait, send, log)

	// Request 2 stalls until 7.2 ms. Requests 3..7 were due at 3..7 ms and
	// each goes out 0.2 ms after the one before: 3 finishes at 7.4 ms (4.4 ms
	// after it was due), 4 at 7.6 (3.6), ... 7 at 8.2 (1.2); 8 is back on time.
	wantMS := []float64{0.2, 0.2, 5.2, 4.4, 3.6, 2.8, 2.0, 1.2, 0.4, 0.2}
	wantLate := []float64{0, 0, 0, 4.2, 3.4, 2.6, 1.8, 1.0, 0.2, 0}
	got := log.ms[reqLookup]
	if len(got) != len(wantMS) {
		t.Fatalf("%d latencies recorded, want %d", len(got), len(wantMS))
	}
	for i := range wantMS {
		if math.Abs(got[i]-wantMS[i]) > 1e-9 || math.Abs(log.lateMS[i]-wantLate[i]) > 1e-9 {
			t.Errorf("request %d: latency %.3f ms late %.3f ms, want %.3f and %.3f", i, got[i], log.lateMS[i], wantMS[i], wantLate[i])
		}
	}
}

// A span's self time is its duration minus what its direct children cover; a
// child's own children are left to it, and a child is clipped to its parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Layer: layDrive, Start: 0, End: 100, Parent: -1},          // 0
		{Layer: layTrinocularRound, Start: 10, End: 60, Parent: 0}, // 1
		{Layer: layNetsimDeliver, Start: 20, End: 30, Parent: 1},   // 2
		{Layer: layNetsimDeliver, Start: 30, End: 45, Parent: 1},   // 3
		{Layer: layCoreEstimator, Start: 60, End: 70, Parent: 0},   // 4
		{Layer: layCoreClassify, Start: 80, End: 120, Parent: 0},   // 5: runs past its parent
	}
	tot := aggregate(spans, 0)
	for _, c := range []struct {
		l                  layer
		count, total, self int64
	}{
		{layDrive, 1, 100, 100 - 50 - 10 - 20}, // child 5 is clipped to the parent's interval
		{layTrinocularRound, 1, 50, 50 - 25},   // children cover [20,45)
		{layNetsimDeliver, 2, 25, 25},
		{layCoreEstimator, 1, 10, 10},
		{layCoreClassify, 1, 40, 40},
	} {
		got := tot[c.l]
		if int64(got.Count) != c.count || got.Total != c.total || got.Self != c.self {
			t.Errorf("%s: count %d total %d self %d, want %d %d %d", layerNames[c.l], got.Count, got.Total, got.Self, c.count, c.total, c.self)
		}
	}
	// Aggregating a tail keeps parent links that point before it.
	tail := aggregate(spans, 1)
	if tail[layDrive].Count != 0 || tail[layTrinocularRound].Self != 25 {
		t.Errorf("tail aggregate: drive count %d, round self %d; want 0 and 25", tail[layDrive].Count, tail[layTrinocularRound].Self)
	}

	// A nil tracer records nothing and costs nothing to call.
	var off *tracer
	off.setWork(3)
	off.end(off.begin(layDrive))

	on := newTracer(8)
	outer := on.begin(layDrive)
	inner := on.begin(layNetsimDeliver)
	on.end(inner)
	on.end(outer)
	if len(on.spans) != 2 || on.spans[inner].Parent != outer || on.spans[outer].Parent != -1 || len(on.open) != 0 {
		t.Errorf("tracer recorded %+v with %d still open", on.spans, len(on.open))
	}
}

// BENCHMARK.json and the program's metric tables say the same thing.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q / %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, program has %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest lists %d per-layer metrics, program has %d (limit 128)", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := m.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, g, d)
		}
		if seen[d.Name] {
			t.Errorf("%s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range exactPerLayer {
		if !seen[name] {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
	for name := range driveLayer {
		if !seen[name] {
			t.Errorf("drive layer %s is not a per-layer metric", name)
		}
	}
}
