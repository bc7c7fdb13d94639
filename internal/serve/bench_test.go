package serve

// Serving-layer benchmarks: the throughput target is >100k single-block
// lookups per second against a sealed 1M-block epoch, full HTTP handler path
// included (parse → admission → binary search → JSON). The fixture drives
// the engine through the same EpochSink contract the live monitor uses, so
// the benchmarked epoch is structurally identical to a production one.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
)

const serveBenchBlocks = 1 << 20 // one million /24s

var (
	serveBenchOnce sync.Once
	serveBenchSrv  *Server
	serveBenchReqs []*http.Request
)

// serveBenchFixture seals a 1M-block epoch once and wires the hardened
// handler over it with admission limits high enough that the benchmark
// measures serving, not shedding.
func serveBenchFixture(b *testing.B) (*Server, []*http.Request) {
	b.Helper()
	serveBenchOnce.Do(func() {
		eng := NewEngine(EngineConfig{})
		eng.BeginRun(monitor.RunInfo{
			Shards: 1, Rounds: 3, Blocks: serveBenchBlocks,
			Start:  time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC),
			Period: 660 * time.Second, Seed: 1,
		})
		pub := make([]monitor.PubBlock, serveBenchBlocks)
		for i := range pub {
			pub[i] = monitor.PubBlock{ID: netsim.MakeBlockID(byte(1+i>>16), byte(i>>8), byte(i))}
		}
		eng.ResyncShard(0, 0, pub)
		deltas := make([]monitor.RoundPub, serveBenchBlocks)
		for r := 0; r < 3; r++ {
			for i := range deltas {
				v := 0.25 + float64((i+r)%3)/4
				deltas[i] = monitor.RoundPub{Avail: v, Long: v}
			}
			eng.PublishRound(0, r, deltas)
		}
		serveBenchSrv = NewServer(eng, ServerConfig{})
		serveBenchSrv.lookup = newBucket(classLimits{RPS: 1e9, Burst: 1 << 30, Queue: 1, MaxWait: time.Millisecond})
		// A spread of present ids across the whole keyspace. Requests are
		// prebuilt so the measured loop is the handler, not the harness; the
		// handler never mutates the request.
		for i := 0; i < 64; i++ {
			id := netsim.MakeBlockID(byte(1+i%16), byte(i*37), byte(i*101))
			s := id.String() // "a.b.c/24"
			serveBenchReqs = append(serveBenchReqs,
				httptest.NewRequest("GET", "/v1/block/"+s[:len(s)-3], nil))
		}
	})
	if serveBenchSrv == nil {
		b.Fatal("serve bench fixture failed")
	}
	return serveBenchSrv, serveBenchReqs
}

// BenchmarkServeLookup1M is the sequential handler cost of one lookup
// against the 1M-block epoch. queries/s is reported explicitly; the >100k
// floor means ns/op must stay under 10000.
func BenchmarkServeLookup1M(b *testing.B) {
	srv, reqs := serveBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != 200 {
			b.Fatalf("lookup returned %d", w.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkServeLookup1MParallel is the same path under GOMAXPROCS-wide
// concurrency — the epoch is lock-free on the read side, so this is the
// aggregate throughput a saturated front door can sustain.
func BenchmarkServeLookup1MParallel(b *testing.B) {
	srv, reqs := serveBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, reqs[i%len(reqs)])
			if w.Code != 200 {
				b.Fatalf("lookup returned %d", w.Code)
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
