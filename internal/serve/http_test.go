package serve

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"sleepnet/internal/netsim"
)

// fixedNow freezes the admission clock so bucket refill is deterministic.
func fixedNow() func() time.Time {
	t0 := testEpoch
	return func() time.Time { return t0 }
}

func get(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	return w
}

// decode asserts the body is one complete JSON document.
func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	dec := json.NewDecoder(w.Body)
	if err := dec.Decode(v); err != nil {
		t.Fatalf("response body is not valid JSON: %v", err)
	}
	if dec.More() {
		t.Fatal("response body has trailing data")
	}
}

// downServer wires a server over the downEngine fixture.
func downServer(blocks int, cfg ServerConfig) *Server {
	if cfg.Now == nil {
		cfg.Now = fixedNow()
	}
	return NewServer(downEngine(blocks), cfg)
}

func TestHTTPBlockLookup(t *testing.T) {
	s := downServer(10, ServerConfig{})

	w := get(t, s, "/v1/block/10.0.2")
	if w.Code != 200 {
		t.Fatalf("code = %d body=%s", w.Code, w.Body)
	}
	var bs BlockStatus
	decode(t, w, &bs)
	if bs.ID != "10.0.2/24" || !bs.Down {
		t.Fatalf("block = %+v", bs)
	}
	if got := w.Header().Get(HeaderEpoch); got != "2" {
		t.Fatalf("%s = %q, want 2", HeaderEpoch, got)
	}

	w = get(t, s, "/v1/block/99.99.99")
	if w.Code != 404 {
		t.Fatalf("missing block code = %d", w.Code)
	}
	var eb errorBody
	decode(t, w, &eb)
	if eb.Error == "" {
		t.Fatal("404 carries no error document")
	}

	w = get(t, s, "/v1/block/not-a-block")
	if w.Code != 400 {
		t.Fatalf("malformed id code = %d", w.Code)
	}
}

func TestHTTPBlocksAndSummary(t *testing.T) {
	s := downServer(10, ServerConfig{})

	w := get(t, s, "/v1/blocks?down=true&limit=3")
	if w.Code != 200 {
		t.Fatalf("code = %d body=%s", w.Code, w.Body)
	}
	var bb blocksBody
	decode(t, w, &bb)
	if len(bb.Blocks) != 3 || !bb.Truncated || bb.Epoch != 2 {
		t.Fatalf("listing = truncated=%v epoch=%d n=%d", bb.Truncated, bb.Epoch, len(bb.Blocks))
	}

	w = get(t, s, "/v1/summary")
	if w.Code != 200 {
		t.Fatalf("summary code = %d", w.Code)
	}
	var sum Summary
	decode(t, w, &sum)
	if sum.Blocks != 10 || sum.Down != 5 {
		t.Fatalf("summary = %+v", sum)
	}

	w = get(t, s, "/v1/status")
	if w.Code != 200 {
		t.Fatalf("status code = %d", w.Code)
	}
	var st Status
	decode(t, w, &st)
	if !st.Ready || st.Epoch != 2 {
		t.Fatalf("status = %+v", st)
	}
}

func TestHTTPNotReady(t *testing.T) {
	s := NewServer(NewEngine(EngineConfig{}), ServerConfig{Now: fixedNow()})
	w := get(t, s, "/v1/block/10.0.0")
	if w.Code != 503 {
		t.Fatalf("code = %d, want 503 before the first epoch", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var eb errorBody
	decode(t, w, &eb)

	// Status still answers so clients can see why.
	if w := get(t, s, "/v1/status"); w.Code != 200 {
		t.Fatalf("status code = %d", w.Code)
	}
}

func TestHTTPAdmissionSheds(t *testing.T) {
	// A frozen clock never refills: burst 1 admits exactly one summary.
	// Queue 0 means an empty bucket sheds immediately.
	s := downServer(10, ServerConfig{
		Summary: ClassLimits{RPS: 1, Burst: 1, Queue: 0, MaxWait: time.Millisecond},
	})
	if w := get(t, s, "/v1/summary"); w.Code != 200 {
		t.Fatalf("first summary code = %d", w.Code)
	}
	w := get(t, s, "/v1/summary")
	if w.Code != 429 && w.Code != 503 {
		t.Fatalf("second summary code = %d, want shed", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("shed Retry-After = %q", w.Header().Get("Retry-After"))
	}
	var eb errorBody
	decode(t, w, &eb)
	if eb.Error == "" {
		t.Fatal("shed response carries no error document")
	}

	// Lookups ride a separate bucket: still admitted while summaries shed.
	if w := get(t, s, "/v1/block/10.0.1"); w.Code != 200 {
		t.Fatalf("lookup while summary sheds: code = %d", w.Code)
	}
}

func TestHTTPDeadClientShedsQueued(t *testing.T) {
	// Empty bucket + available queue + a context already cancelled: the
	// queued request sheds 503 instead of being served for nobody.
	s := downServer(10, ServerConfig{
		Summary: ClassLimits{RPS: 1, Burst: 1, Queue: 4, MaxWait: time.Hour},
	})
	if w := get(t, s, "/v1/summary"); w.Code != 200 {
		t.Fatalf("first summary code = %d", w.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/v1/summary", nil).WithContext(ctx))
	if w.Code != 503 {
		t.Fatalf("dead queued client code = %d, want 503", w.Code)
	}
}

func TestHTTPMethodAndDegraded(t *testing.T) {
	eng := downEngine(10)
	eng.SetDegraded()
	s := NewServer(eng, ServerConfig{Now: fixedNow()})

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/summary", nil))
	if w.Code != 405 {
		t.Fatalf("POST code = %d", w.Code)
	}

	if w := get(t, s, "/v1/block/10.0.1"); w.Header().Get(HeaderDegraded) != "true" {
		t.Fatal("degraded engine served without the degraded header")
	}
}

func TestBudgetConnDisconnectsOverBudget(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	release := make(chan struct{}, 1)
	release <- struct{}{}
	bc := &budgetConn{Conn: server, release: release, remaining: 8}
	defer bc.Close()

	go func() {
		_, _ = client.Write(make([]byte, 64))
	}()
	buf := make([]byte, 64)
	n, err := bc.Read(buf)
	if err != nil || n != 8 {
		t.Fatalf("budgeted read: n=%d err=%v", n, err)
	}
	if _, err := bc.Read(buf); err == nil {
		t.Fatal("read past budget succeeded")
	}
}

// allocWriter is a ResponseWriter that keeps nothing, so AllocsPerRun sees
// the handler's allocations only.
type allocWriter struct {
	h      http.Header
	status int
}

func (w *allocWriter) Header() http.Header         { return w.h }
func (w *allocWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *allocWriter) WriteHeader(status int)      { w.status = status }

// TestHTTPLookupAllocs pins what one in-process /v1/block lookup allocates,
// on a diurnal block (the three optional fields are the larger answer). A
// point lookup consults no context, so the handler builds no deadline for
// it; the ceiling is what is left, and the place to start when cutting it.
func TestHTTPLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the count is pinned without it")
	}
	e := NewEngine(EngineConfig{})
	drive(e, 2, 72, time.Hour, func(b, r int) float64 {
		return 0.5 + 0.4*math.Cos(2*math.Pi*(float64(r)-8)/24)
	})
	s := NewServer(e, ServerConfig{Now: fixedNow()})
	r := httptest.NewRequest("GET", "/v1/block/10.0.1", nil)
	w := &allocWriter{h: http.Header{}}
	s.ServeHTTP(w, r)
	if bs, _ := e.Epoch().Lookup(netsim.MakeBlockID(10, 0, 1)); w.status != 200 || bs.Class != "strict" {
		t.Fatalf("status %d, class %q; want 200 on a strict block", w.status, bs.Class)
	}
	const ceiling = 15 // 19 with a per-request deadline context
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, r) }); got > ceiling {
		t.Fatalf("in-process lookup allocates %.0f times, ceiling %d", got, ceiling)
	}
}
