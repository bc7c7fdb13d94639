package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sleepnet/internal/monitor"
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
	if cfg.now == nil {
		cfg.now = fixedNow()
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
	s := NewServer(NewEngine(EngineConfig{}), ServerConfig{now: fixedNow()})
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
	s := downServer(10, ServerConfig{})
	s.summary = newBucket(classLimits{RPS: 1, Burst: 1, Queue: 0, MaxWait: time.Millisecond})
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
	s := downServer(10, ServerConfig{})
	s.summary = newBucket(classLimits{RPS: 1, Burst: 1, Queue: 4, MaxWait: time.Hour})
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
	s := NewServer(eng, ServerConfig{now: fixedNow()})

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/summary", nil))
	if w.Code != 405 {
		t.Fatalf("POST code = %d", w.Code)
	}

	if w := get(t, s, "/v1/block/10.0.1"); w.Header().Get(HeaderDegraded) != "true" {
		t.Fatal("degraded engine served without the degraded header")
	}
}

// serveGoroutines counts live goroutines (other than the calling one) with
// a frame in this package, the way the monitor's soak test counts its own.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "serveGoroutines") {
			continue // the caller
		}
		if strings.Contains(g, "internal/serve") {
			count++
		}
	}
	return count
}

// failingListener's Accept fails at once, the way a closed socket does.
type failingListener struct{ net.Listener }

var errListenerGone = errors.New("listener gone")

func (failingListener) Accept() (net.Conn, error) { return nil, errListenerGone }

// TestServeLeaksNoGoroutines: Serve's goroutines — its shutdown watcher and
// its connections' — exit on each of Serve's ways out: a cancelled ctx, with
// or without connections still open, and a listener that fails. The
// package's goroutine count returns to where it was before Serve ran.
func TestServeLeaksNoGoroutines(t *testing.T) {
	settled := func(t *testing.T, before int) {
		t.Helper()
		got := serveGoroutines()
		for i := 0; i < 200 && got > before; i++ {
			time.Sleep(time.Millisecond)
			got = serveGoroutines()
		}
		if got > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d serve goroutines before, %d after Serve returned\n%s",
				before, got, buf[:runtime.Stack(buf, true)])
		}
	}

	t.Run("cancelled", func(t *testing.T) {
		before := serveGoroutines()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- downServer(10, ServerConfig{}).Serve(ctx, ln) }()
		// One request proves the server is up before it is cancelled.
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := client.Get("http://" + ln.Addr().String() + "/v1/summary")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Serve after cancel = %v, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after its ctx was cancelled")
		}
		settled(t, before)
	})

	// Cancelled while connections are open: the idle keep-alive connection
	// is closed at once, the one whose summary waits in the admission queue
	// (its context watched) gets the shutdown grace and is then closed, and
	// Serve returns nil once every goroutine it started is gone.
	t.Run("cancelled with open connections", func(t *testing.T) {
		before := serveGoroutines()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := downServer(10, ServerConfig{})
		s.summary = newBucket(classLimits{RPS: 0.01, Burst: 1, Queue: 4, MaxWait: time.Hour})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Serve(ctx, ln) }()

		dial := func() (net.Conn, *bufio.Reader) {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			return c, bufio.NewReader(c)
		}
		idle, idleR := dial()
		defer idle.Close()
		if _, err := io.WriteString(idle, "GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(idleR, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("summary on the idle connection: %v %v", resp, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		busy, _ := dial()
		defer busy.Close()
		if _, err := io.WriteString(busy, "GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		if !waitFor(5*time.Second, func() bool { return queued(s.summary) == 1 }) {
			t.Fatal("the busy connection's summary never queued")
		}

		start := time.Now()
		cancel()
		if _, err := idleR.ReadByte(); err != io.EOF {
			t.Fatalf("idle connection after cancel: read %v, want EOF", err)
		}
		if d := time.Since(start); d >= shutdownGrace {
			t.Fatalf("idle connection closed %v after cancel, want at once", d)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Serve after cancel = %v, want nil", err)
			}
		case <-time.After(shutdownGrace + time.Second):
			t.Fatal("Serve did not return within the shutdown grace")
		}
		settled(t, before)
	})

	t.Run("listener error", func(t *testing.T) {
		before := serveGoroutines()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// ctx stays live until the count is checked: only Serve's own
		// return may stop its watcher.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err = downServer(10, ServerConfig{}).Serve(ctx, failingListener{ln})
		if !errors.Is(err, errListenerGone) {
			t.Fatalf("Serve over a failing listener = %v, want %v", err, errListenerGone)
		}
		settled(t, before)
	})
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
// it, and its answer is appended into a pooled buffer, not marshalled; the
// ceiling is what is left, and the place to start when cutting it.
func TestHTTPLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the count is pinned without it")
	}
	e := NewEngine(EngineConfig{})
	drive(e, 2, 72, time.Hour, func(b, r int) monitor.RoundPub {
		v := 0.5 + 0.4*math.Cos(2*math.Pi*(float64(r)-8)/24)
		return monitor.RoundPub{Avail: v, Long: v, Class: monitor.ClassStrict, Phase: -2 * math.Pi * 8 / 24}
	})
	s := NewServer(e, ServerConfig{now: fixedNow()})
	r := httptest.NewRequest("GET", "/v1/block/10.0.1", nil)
	w := &allocWriter{h: http.Header{}}
	s.ServeHTTP(w, r)
	if bs, _ := e.Epoch().Lookup(netsim.MakeBlockID(10, 0, 1)); w.status != 200 || bs.Class != "strict" {
		t.Fatalf("status %d, class %q; want 200 on a strict block", w.status, bs.Class)
	}
	const ceiling = 9 // 13 with a per-request deadline context
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, r) }); got > ceiling {
		t.Fatalf("in-process lookup allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// TestHTTPLookupNonFinite: a block whose value has no JSON form gets the
// complete 500 "encoding failed" document, Content-Length included, not a
// truncated answer.
func TestHTTPLookupNonFinite(t *testing.T) {
	e := NewEngine(EngineConfig{})
	drive(e, 2, 2, time.Hour, func(b, r int) monitor.RoundPub {
		if b == 1 {
			return avail(math.Inf(1))
		}
		return avail(0.5)
	})
	s := NewServer(e, ServerConfig{now: fixedNow()})
	if w := get(t, s, "/v1/block/10.0.0"); w.Code != 200 {
		t.Fatalf("finite block: code %d body %s", w.Code, w.Body)
	}
	w := get(t, s, "/v1/block/10.0.1")
	if w.Code != http.StatusInternalServerError || w.Body.String() != `{"error":"encoding failed"}` {
		t.Fatalf("non-finite block: code %d body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, w.Body.Len())
	}
}
