// Package par is the module's one parallel loop over an index range.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(lo, hi) over [0, n) in contiguous chunks of chunk indices
// (the last one shorter), dealt from one atomic cursor to
// min(workers, ⌈n/chunk⌉) goroutines, the calling goroutine among them;
// workers <= 0 means GOMAXPROCS. It returns once every call has. Every
// index is in exactly one call, but the order of the calls and the
// goroutine that makes each are unspecified, so fn writes only what its own
// chunk owns (per-index slots the caller reads in index order afterwards).
// A single chunk runs inline: no goroutine starts and nothing is allocated.
func For(n, chunk, workers int, fn func(lo, hi int)) {
	if chunk < 1 {
		panic("par: chunk < 1")
	}
	if n <= chunk {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64 // start of the next undealt chunk
	work := func() {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			fn(lo, min(lo+chunk, n))
		}
	}
	var wg sync.WaitGroup
	for w := min(workers, (n+chunk-1)/chunk); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
