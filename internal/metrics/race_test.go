package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrentStress hammers one shared registry from many
// goroutines — registration by name (exercising the map lock) interleaved
// with hot-path updates — then asserts the totals. Run under -race this is
// the machine check of the package's concurrency claims.
func TestRegistryConcurrentStress(t *testing.T) {
	const (
		workers = 16
		iters   = 2000
	)
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Private and shared names mix lock-path and atomic-path work.
			own := r.Counter(fmt.Sprintf("worker.%d", w))
			for i := 0; i < iters; i++ {
				r.Counter("shared.events").Inc()
				own.Inc()
				r.Histogram("shared.sizes", "", []float64{10, 100, 1000}).Observe(float64(i % 2000))
				if i%64 == 0 {
					_ = r.Snapshot() // concurrent readers must be safe too
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counter("shared.events"); got != workers*iters {
		t.Fatalf("shared.events = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := snap.Counter(fmt.Sprintf("worker.%d", w)); got != iters {
			t.Fatalf("worker.%d = %d, want %d", w, got, iters)
		}
	}
	var hist HistogramValue
	for _, h := range snap.Histograms {
		if h.Name == "shared.sizes" {
			hist = h
		}
	}
	if hist.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hist.Count, workers*iters)
	}
	var inBuckets int64
	for _, c := range hist.Counts {
		inBuckets += c
	}
	if inBuckets != hist.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, hist.Count)
	}
	// Sum of integers below 2^53 is exact regardless of accumulation order.
	perWorker := int64(0)
	for i := 0; i < iters; i++ {
		perWorker += int64(i % 2000)
	}
	if int64(hist.Sum) != perWorker*workers {
		t.Fatalf("histogram sum = %v, want %d", hist.Sum, perWorker*workers)
	}
}
