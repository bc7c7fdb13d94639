package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
)

// serveOn runs s.Serve on a loopback listener for the rest of the test and
// returns its address; the cleanup cancels it and requires a nil return.
func serveOn(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve = %v, want nil", err)
		}
	})
	return ln.Addr().String()
}

// answer is one response as the conformance test compares it.
type answer struct {
	Proto  string
	Status int
	Header http.Header // without Date
	Body   string
	Close  bool // the response announced the connection's close
}

// exchange writes raw to a fresh connection to addr, reads one response per
// method, and reports whether the server then closed the connection: a
// connection left open must answer one more request.
func exchange(t *testing.T, addr, raw string, methods ...string) (answers []answer, closed bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	read := func(method string) answer {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("%q: reading the response: %v", raw, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%q: reading the body: %v", raw, err)
		}
		h := resp.Header.Clone()
		if h.Get("Date") == "" {
			t.Errorf("%q: response without Date", raw)
		}
		h.Del("Date")
		return answer{resp.Proto, resp.StatusCode, h, string(body), resp.Close}
	}
	for _, m := range methods {
		answers = append(answers, read(m))
	}
	if _, err := io.WriteString(c, "GET /v1/status HTTP/1.1\r\nHost: sleepnet\r\n\r\n"); err == nil {
		if _, err := br.Peek(1); err == nil {
			if a := read("GET"); a.Status != http.StatusOK {
				t.Fatalf("%q: follow-up status request answered %d", raw, a.Status)
			}
			return answers, false
		}
	}
	return answers, true
}

// TestServeConformsToNetHTTP serves one engine through net/http, the
// oracle, and through Serve, and requires the same answers — status,
// headers but Date, body, and whether the connection stays open — to the
// same raw requests.
func TestServeConformsToNetHTTP(t *testing.T) {
	s := downServer(10, ServerConfig{})
	ours := serveOn(t, s)
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref := &http.Server{Handler: s}
	go func() { _ = ref.Serve(refLn) }() // returns ErrServerClosed at cleanup
	t.Cleanup(func() { _ = ref.Close() })

	const host = "Host: sleepnet\r\n"
	cases := []struct {
		name, raw string
		methods   []string
	}{
		{"lookup hit", "GET /v1/block/10.0.2 HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"lookup miss", "GET /v1/block/99.99.99 HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"malformed id", "GET /v1/block/not-a-block HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"listing", "GET /v1/blocks?down=true&limit=3 HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"listing miss", "GET /v1/blocks?prefix=99 HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"summary", "GET /v1/summary HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"status", "GET /v1/status HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"unknown route", "GET /v2/nothing HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"HEAD", "HEAD /v1/block/10.0.2 HTTP/1.1\r\n" + host + "\r\n", []string{"HEAD"}},
		{"POST", "POST /v1/summary HTTP/1.1\r\n" + host + "\r\n", []string{"POST"}},
		{"escaped path", "GET /v1/block/10.0.%32 HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"absolute-form", "GET http://sleepnet/v1/block/10.0.3 HTTP/1.1\r\n" + host + "\r\n", []string{"GET"}},
		{"bare LF", "GET /v1/block/10.0.4 HTTP/1.1\nHost: sleepnet\n\n", []string{"GET"}},
		{"HTTP/1.0", "GET /v1/block/10.0.2 HTTP/1.0\r\n\r\n", []string{"GET"}},
		{"HTTP/1.0 keep-alive", "GET /v1/block/10.0.2 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", []string{"GET"}},
		{"Connection: close", "GET /v1/block/10.0.2 HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n", []string{"GET"}},
		{"pipelined", "GET /v1/block/10.0.1 HTTP/1.1\r\n" + host + "\r\nGET /v1/summary HTTP/1.1\r\n" + host + "\r\n",
			[]string{"GET", "GET"}},
	}
	for _, c := range cases {
		got, gotClosed := exchange(t, ours, c.raw, c.methods...)
		want, wantClosed := exchange(t, refLn.Addr().String(), c.raw, c.methods...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n Serve    %+v\n net/http %+v", c.name, got, want)
		}
		if gotClosed != wantClosed {
			t.Errorf("%s: Serve closed the connection: %v, net/http: %v", c.name, gotClosed, wantClosed)
		}
	}
}

// TestServeRefusesWithCompleteAnswer: every shape outside the accepted
// subset, and bytes that are not HTTP at all, get a 4xx with a complete
// JSON error document, and then the connection is closed.
func TestServeRefusesWithCompleteAnswer(t *testing.T) {
	addr := serveOn(t, downServer(10, ServerConfig{}))
	const host = "Host: sleepnet\r\n"
	cases := []struct{ name, raw string }{
		{"body", "POST /v1/summary HTTP/1.1\r\n" + host + "Content-Length: 4\r\n\r\nboom"},
		{"chunked body", "GET /v1/status HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"},
		{"Expect", "GET /v1/status HTTP/1.1\r\n" + host + "Expect: 100-continue\r\n\r\n"},
		{"no Host", "GET /v1/status HTTP/1.1\r\n\r\n"},
		{"two Hosts", "GET /v1/status HTTP/1.1\r\n" + host + host + "\r\n"},
		{"obs-fold", "GET /v1/status HTTP/1.1\r\n" + host + "X-Folded: a\r\n b\r\n\r\n"},
		{"bad method", "G(T /v1/status HTTP/1.1\r\n" + host + "\r\n"},
		{"bad header name", "GET /v1/status HTTP/1.1\r\n" + host + "Bad Name: x\r\n\r\n"},
		{"control byte in target", "GET /v1/st\x01tus HTTP/1.1\r\n" + host + "\r\n"},
		{"bad version", "GET /v1/status HTTP/1.x\r\n" + host + "\r\n"},
		{"head over the limit", "GET /v1/status HTTP/1.1\r\n" + host + "X-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n"},
		{"not HTTP", "\x00\x01\x02\x03 not http at all\r\n\r\n"},
	}
	for _, c := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, c.raw); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: no response: %v", c.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: truncated body: %v", c.name, err)
		}
		var eb errorBody
		if resp.StatusCode < 400 || resp.StatusCode > 499 || json.Unmarshal(body, &eb) != nil || eb.Error == "" {
			t.Errorf("%s: answered %d %q, want a 4xx JSON error document", c.name, resp.StatusCode, body)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("%s: connection still open after the refusal (read: %v)", c.name, err)
		}
		_ = conn.Close()
	}
}

// queued reports how many requests wait in b's queue.
func queued(b *bucket) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiting
}

// waitFor polls cond every millisecond for up to limit.
func waitFor(limit time.Duration, cond func() bool) bool {
	for end := time.Now().Add(limit); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestServeShedsQueuedRequestOfClosedSocket: a summary queued for a token
// whose client closes its socket is shed — the request's watch sees the
// close — instead of waiting out its turn for nobody.
func TestServeShedsQueuedRequestOfClosedSocket(t *testing.T) {
	reg := metrics.New()
	s := downServer(10, ServerConfig{Metrics: reg})
	// One token, no refill on the frozen clock, a queue that waits an hour.
	s.summary = newBucket(classLimits{RPS: 0.01, Burst: 1, Queue: 4, MaxWait: time.Hour})
	addr := serveOn(t, s)

	if a, _ := exchange(t, addr, "GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n", "GET"); a[0].Status != http.StatusOK {
		t.Fatalf("first summary answered %d", a[0].Status)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, "GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if !waitFor(5*time.Second, func() bool { return queued(s.summary) == 1 }) {
		t.Fatal("the second summary never queued")
	}
	_ = c.Close()
	shed := func() int64 { return reg.Snapshot().Counter("serve.http_shed_overload") }
	if !waitFor(time.Second, func() bool { return shed() == 1 }) {
		t.Fatalf("serve.http_shed_overload = %d a second after the client closed, want 1", shed())
	}
	if queued(s.summary) != 0 {
		t.Fatal("the shed request still holds its queue slot")
	}
	if w := reg.Snapshot().Counter("serve.http_watched"); w < 1 {
		t.Fatalf("serve.http_watched = %d, want the queued summary counted", w)
	}
}

// pipeConn is one end of a net.Pipe whose future deadlines do nothing, so
// that an allocation count sees the connection loop and not the pipe's
// timers. A read deadline that is past or zero — a watch being stopped or
// started — is passed on.
type pipeConn struct{ net.Conn }

func (p pipeConn) SetReadDeadline(t time.Time) error {
	if t.After(time.Now()) {
		return nil
	}
	return p.Conn.SetReadDeadline(t)
}

func (pipeConn) SetWriteDeadline(time.Time) error { return nil }

// TestConnPipelinedLookupAllocs pins what the connection loop allocates for
// one pipelined /v1/block lookup, ServeHTTP's own allocations
// (TestHTTPLookupAllocs) included, and that an admitted lookup arms no
// disconnect watch: it starts no goroutine.
func TestConnPipelinedLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the count is pinned without it")
	}
	e := NewEngine(EngineConfig{})
	drive(e, 2, 72, time.Hour, func(b, r int) monitor.RoundPub {
		v := 0.5 + 0.4*math.Cos(2*math.Pi*(float64(r)-8)/24)
		return monitor.RoundPub{Avail: v, Long: v, Class: monitor.ClassStrict, Phase: -2 * math.Pi * 8 / 24}
	})
	s := NewServer(e, ServerConfig{now: fixedNow()})
	s.met.watched = metrics.New().Counter("serve.http_watched")
	d := &door{srv: s, conns: map[*conn]struct{}{}, quit: make(chan struct{})}
	d.base, d.kill = context.WithCancel(context.Background())
	defer d.kill()
	client, server := net.Pipe()
	c := d.track(pipeConn{server})
	go c.serve()
	defer func() {
		_ = client.Close()
		d.wg.Wait()
	}()

	const req = "GET /v1/block/10.0.1 HTTP/1.1\r\nHost: sleepnet\r\n\r\n"
	if _, err := io.WriteString(client, req); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 4096)
	n, err := client.Read(one) // the loop writes a response with one Write
	if err != nil || !bytes.HasPrefix(one[:n], []byte("HTTP/1.1 200 OK\r\n")) {
		t.Fatalf("lookup answered %q (%v)", one[:n], err)
	}

	const pipelined = 8
	batch := []byte(strings.Repeat(req, pipelined))
	answers := make([]byte, pipelined*n)
	perBatch := testing.AllocsPerRun(100, func() {
		if _, err := client.Write(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, answers); err != nil {
			t.Fatal(err)
		}
	})
	want := withoutDate(one[:n])
	for i := 0; i < pipelined; i++ {
		if a := withoutDate(answers[i*n : (i+1)*n]); !bytes.Equal(a, want) {
			t.Fatalf("pipelined answer %d = %q, want %q", i, a, want)
		}
	}
	// ServeHTTP's 9 and the request target's string.
	const ceiling = 10
	if got := perBatch / pipelined; got > ceiling {
		t.Fatalf("a pipelined lookup allocates %.2f times, ceiling %d", got, ceiling)
	}
	if w := s.met.watched.Value(); w != 0 {
		t.Fatalf("%d lookups armed a disconnect watch, want none", w)
	}
}

// withoutDate drops the Date line from a response.
func withoutDate(resp []byte) []byte {
	i := bytes.Index(resp, []byte("\r\nDate: "))
	if i < 0 {
		return resp
	}
	j := bytes.Index(resp[i+2:], []byte("\r\n"))
	return append(append([]byte(nil), resp[:i]...), resp[i+2+j:]...)
}

// headEnd is the offset just past the first empty line of data, -1 if
// there is none: where a request head ends.
func headEnd(data []byte) int {
	for start := 0; start < len(data); {
		i := bytes.IndexByte(data[start:], '\n')
		if i < 0 {
			return -1
		}
		if line := data[start : start+i]; len(line) == 0 || string(line) == "\r" {
			return start + i + 1
		}
		start += i + 1
	}
	return -1
}

// FuzzReadRequestHead: on any bytes the head reader never panics, never
// reads past the head's end, never accepts a head that announces a body or
// an expectation, and never accepts a head over maxHeaderBytes.
func FuzzReadRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /v1/block/10.0.1 HTTP/1.1\r\nHost: x\r\n\r\n",
		"HEAD /v1/summary HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"GET /v1/status HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /v1/status HTTP/1.0\r\n\r\n",
		"GET http://x/v1/status HTTP/1.1\nHost: x\n\n",
		"POST /v1/summary HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nboom",
		"POST /v1/summary HTTP/1.1\r\nHost: x\r\nContent-Length: 000\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\r\n",
		"GET / HTTP/1.1\r\nX-A: a\r\n folded\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/2.0\r\nHost: x\r\n\r\n",
		"\x00\x01\x02\x03 not http at all\r\n\r\n",
		"\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	br := bufio.NewReaderSize(nil, maxHeaderBytes) // reset for each input
	f.Fuzz(func(t *testing.T, data []byte) {
		br.Reset(bytes.NewReader(data))
		var h requestHead
		err := readRequestHead(br, &h)
		rest, _ := io.ReadAll(br) // a bytes.Reader does not fail
		consumed := len(data) - len(rest)
		end := headEnd(data)
		if end >= 0 && consumed > end {
			t.Fatalf("read %d bytes of a %d-byte head", consumed, end)
		}
		var ref *refusal
		if err != nil && !errors.As(err, &ref) && err != io.EOF {
			t.Fatalf("error %v is neither a refusal nor the end of the input", err)
		}
		if err != nil {
			return
		}
		if consumed != end {
			t.Fatalf("accepted a head of %d bytes that ends at %d", consumed, end)
		}
		if end > maxHeaderBytes {
			t.Fatalf("accepted a %d-byte head, limit %d", end, maxHeaderBytes)
		}
		for _, line := range bytes.Split(data[:end], []byte("\n")) {
			name, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.Trim(value, " \t\r")
			switch {
			case bytes.EqualFold(name, []byte("Transfer-Encoding")), bytes.EqualFold(name, []byte("Expect")):
				t.Fatalf("accepted a head with %s", name)
			case bytes.EqualFold(name, []byte("Content-Length")) && len(bytes.Trim(value, "0")) > 0:
				t.Fatalf("accepted a head announcing a %s-byte body", value)
			}
		}
	})
}
