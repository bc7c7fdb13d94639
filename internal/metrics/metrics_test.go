package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	h := r.Histogram("z", "", []float64{1, 2})
	h.Observe(1.5)
	stop := h.Time()
	stop()
	if h.Sum() != 0 {
		t.Fatalf("nil histogram recorded: sum=%v", h.Sum())
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("probes")
	c.Inc()
	c.Add(9)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("probes") != c {
		t.Fatal("same name returned a different counter")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("sizes", "", []float64{10, 100, 1000})
	for _, v := range []float64{1, 10, 11, 100, 5000, math.NaN()} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	// NaN dropped; <=10: {1,10}, <=100: {11,100}, <=1000: {}, overflow: {5000}.
	wantCounts := []int64{2, 2, 0, 1}
	if len(hv.Counts) != len(wantCounts) {
		t.Fatalf("counts len = %d, want %d", len(hv.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, hv.Counts[i], w, hv)
		}
	}
	if hv.Count != 5 || hv.Sum != 1+10+11+100+5000 {
		t.Fatalf("count=%d sum=%v", hv.Count, hv.Sum)
	}
	if got := hv.Mean(); math.Abs(got-5122.0/5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSnapshotSortedAndDeterministicSerialization(t *testing.T) {
	build := func() Snapshot {
		r := New()
		// Register in scrambled order; snapshots must sort by name.
		r.Counter("zebra").Add(2)
		r.Counter("alpha").Add(1)
		r.Histogram("hist.b", "", []float64{1}).Observe(0.5)
		r.Histogram("hist.a", UnitSeconds, []float64{1}).Observe(0.25)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	var b1, b2 bytes.Buffer
	if err := s1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshots of identical computations differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if s1.Counters[0].Name != "alpha" || s1.Counters[1].Name != "zebra" {
		t.Fatalf("counters not sorted: %+v", s1.Counters)
	}
	if s1.Histograms[0].Name != "hist.a" {
		t.Fatalf("histograms not sorted: %+v", s1.Histograms)
	}
}

func TestDeterministicStripsTimingHistograms(t *testing.T) {
	r := New()
	r.Counter("kept").Inc()
	r.Histogram("fft.size", "", []float64{64, 1024}).Observe(512)
	stop := r.Histogram("write.seconds", UnitSeconds, ExpBuckets(1e-6, 10, 8)).Time()
	stop()
	det := r.Snapshot().Deterministic()
	if len(det.Histograms) != 1 || det.Histograms[0].Name != "fft.size" {
		t.Fatalf("deterministic histograms = %+v", det.Histograms)
	}
	if det.Counter("kept") != 1 {
		t.Fatal("counters must survive Deterministic")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Add(7)
	r.Histogram("h", "", []float64{2, 4}).Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a") != 7 || back.Histograms[0].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
}
