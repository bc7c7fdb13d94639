package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// TestFor holds For to its contract over every (n, chunk, workers) of the
// grid: each index is covered exactly once, by a chunk that starts on a
// chunk boundary, is chunk long (the last one shorter) and stays inside
// [0, n); no more goroutines take part than min(workers, chunks); and a
// single chunk runs on the calling goroutine and allocates nothing.
func TestFor(t *testing.T) {
	covered := 0
	count := func(lo, hi int) { covered += hi - lo }
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, chunk := range []int{1, 3, 64, 2000} {
			for _, workers := range []int{-1, 1, 2, 8} {
				var mu sync.Mutex
				seen := make([]int, n)
				gs := make(map[int]bool)
				For(n, chunk, workers, func(lo, hi int) {
					mu.Lock()
					defer mu.Unlock()
					gs[goid()] = true
					if lo < 0 || hi > n || lo >= hi || lo%chunk != 0 || hi != min(lo+chunk, n) {
						t.Errorf("n %d chunk %d workers %d: chunk [%d, %d)", n, chunk, workers, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n %d chunk %d workers %d: index %d covered %d times", n, chunk, workers, i, c)
					}
				}
				w := workers
				if w <= 0 {
					w = runtime.GOMAXPROCS(0)
				}
				if limit := min(w, (n+chunk-1)/chunk); len(gs) > limit {
					t.Fatalf("n %d chunk %d workers %d: %d goroutines took part, want at most %d", n, chunk, workers, len(gs), limit)
				}
				if n > chunk {
					continue
				}
				if caller := goid(); n > 0 && !gs[caller] {
					t.Fatalf("n %d chunk %d workers %d: the single chunk ran off the calling goroutine", n, chunk, workers)
				}
				covered = 0
				if a := testing.AllocsPerRun(10, func() { For(n, chunk, workers, count) }); a != 0 {
					t.Fatalf("n %d chunk %d workers %d: one chunk allocates %v times a call", n, chunk, workers, a)
				}
				if covered != 11*n { // AllocsPerRun makes one warm-up call
					t.Fatalf("n %d chunk %d workers %d: %d indexes covered in 11 calls", n, chunk, workers, covered)
				}
			}
		}
	}
}
