package serve

// conn.go — the front door's HTTP/1.1 connection loop. One goroutine a
// connection reads a request head, fills the connection's reused
// http.Request and buffering ResponseWriter, calls ServeHTTP, and writes the
// status line, the headers sorted by key, Date and the body with one Write.
//
// It speaks the subset of HTTP/1.1 the query surface needs: requests without
// a body (GET and HEAD are served; any other method reaches ServeHTTP, which
// answers 405), keep-alive by the HTTP/1.1 and HTTP/1.0 rules, and pipelined
// requests answered in order. Everything else — a body, Expect, an HTTP/1.1
// request without Host, obs-fold header lines, bad tokens, a head over
// maxHeaderBytes — is refused with a complete JSON 4xx, and the connection
// is closed.
//
// A request's context watches the client's socket only once something asks
// for its Done channel (a queued admission, a listing's or summary's
// deadline). The watch is a peek through the connection's bufio.Reader that
// leaves what it reads buffered, so a pipelined next request is never
// consumed; an admitted point lookup never asks, and runs start to finish on
// the connection's one goroutine.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxHeaderBytes bounds one request head, request line included; it is
	// also the size of a connection's read buffer.
	maxHeaderBytes = 16 << 10
	// shutdownGrace is how long Serve lets busy connections finish after its
	// ctx is cancelled before it closes them.
	shutdownGrace = 2 * time.Second
	// lingerTimeout bounds how long a connection closed with request bytes
	// still unread keeps draining them after a half-close, so that the client
	// reads the response before the kernel would reset the connection.
	lingerTimeout = 500 * time.Millisecond
)

// wallNow is the front door's clock: socket deadlines and the Date header.
func wallNow() time.Time {
	//lint:allow nowallclock: socket deadlines and the Date header are wall-clock by nature; no study, golden or WAL reads them
	return time.Now()
}

// aLongTimeAgo is a read deadline already past: setting it unblocks a read
// in progress at once.
var aLongTimeAgo = time.Unix(1, 0)

// Serve answers HTTP on l until ctx is cancelled. The listener is wrapped
// with the connection cap and the per-connection read budget; each
// connection gets the idle, header and write deadlines. On cancellation,
// Serve stops accepting, closes idle connections at once, lets busy ones
// finish their request for up to shutdownGrace and then closes every
// connection; it returns nil once all of its goroutines have exited. A
// listener that fails ends Serve the same way, returning the error.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	capped := &cappedListener{
		Listener: l,
		slots:    make(chan struct{}, maxConns),
		budget:   maxRequestBytes,
	}
	d := &door{srv: s, conns: map[*conn]struct{}{}, quit: make(chan struct{})}
	d.base, d.kill = context.WithCancel(context.Background())
	defer d.kill()

	accepting := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		select {
		case <-ctx.Done():
		case <-accepting:
		}
		d.drain(capped)
	}()
	err := d.accept(capped)
	close(accepting)
	<-drained
	d.finish()
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// Connection states: a connection is idle while it waits for the first byte
// of its next request, and only an idle connection is closed at once when
// Serve shuts down.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// door is one Serve call's set of connections and its shutdown state.
type door struct {
	srv *Server
	// base is every request context's parent; kill cancels it when the
	// shutdown grace runs out.
	base context.Context
	kill context.CancelFunc

	draining atomic.Bool
	quit     chan struct{} // closed when draining starts

	mu    sync.Mutex
	conns map[*conn]struct{}
	wg    sync.WaitGroup
}

// accept runs the accept loop until the listener fails or Serve drains.
// Temporary errors (out of file descriptors) back off and retry, as
// net/http's accept loop does.
func (d *door) accept(l net.Listener) error {
	var delay time.Duration
	for {
		rwc, err := l.Accept()
		if err != nil {
			if d.draining.Load() {
				return nil
			}
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				t := time.NewTimer(delay)
				select {
				case <-t.C:
				case <-d.quit:
					t.Stop()
				}
				continue
			}
			return err
		}
		delay = 0
		if c := d.track(rwc); c != nil {
			go c.serve()
		}
	}
}

// track registers a new connection, or closes it if Serve is draining.
func (d *door) track(rwc net.Conn) *conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining.Load() {
		_ = rwc.Close() // never served; nothing to report
		return nil
	}
	c := newConn(d, rwc)
	d.conns[c] = struct{}{}
	d.wg.Add(1)
	return c
}

// forget closes a connection whose goroutine is done with it.
func (d *door) forget(c *conn) {
	_ = c.rwc.Close() // may already be closed by drain or finish
	d.mu.Lock()
	delete(d.conns, c)
	d.mu.Unlock()
	d.wg.Done()
}

// drain stops accepting and closes every idle connection; a busy one closes
// itself after its response.
func (d *door) drain(l net.Listener) {
	_ = l.Close() // unblocks Accept; closing a failed listener may fail again
	d.draining.Store(true)
	close(d.quit)
	d.mu.Lock()
	defer d.mu.Unlock()
	for c := range d.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			_ = c.rwc.Close() // its goroutine sees the error and exits
		}
	}
}

// finish waits for the connections to close themselves, for up to
// shutdownGrace, then cancels every request context, closes every
// connection and waits for their goroutines.
func (d *door) finish() {
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(shutdownGrace)
	defer t.Stop()
	select {
	case <-done:
		return
	case <-t.C:
	}
	d.kill()
	d.mu.Lock()
	for c := range d.conns {
		_ = c.rwc.Close() // its goroutine sees the error and exits
	}
	d.mu.Unlock()
	<-done
}

// conn is one client connection and everything it reuses from one request
// to the next.
type conn struct {
	d     *door
	rwc   net.Conn
	br    *bufio.Reader
	state atomic.Int32

	head requestHead
	req  *http.Request
	url  url.URL
	ctx  reqCtx
	w    response
}

func newConn(d *door, rwc net.Conn) *conn {
	c := &conn{d: d, rwc: rwc, br: bufio.NewReaderSize(rwc, maxHeaderBytes)}
	c.ctx.c = c
	c.w.h = http.Header{}
	c.req = (&http.Request{
		Header:     http.Header{},
		Body:       http.NoBody,
		RemoteAddr: rwc.RemoteAddr().String(),
	}).WithContext(&c.ctx)
	return c
}

// serve is the connection's loop: wait for a request, read its head, serve
// it, write the response; until the client or the server ends it.
func (c *conn) serve() {
	defer c.d.forget(c)
	for {
		if c.br.Buffered() == 0 {
			// An error here means the connection is gone; Peek reports it.
			_ = c.rwc.SetReadDeadline(wallNow().Add(idleTimeout))
			if _, err := c.br.Peek(1); err != nil {
				return
			}
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			return // Serve closed it while it was idle
		}
		if !headBuffered(c.br) {
			_ = c.rwc.SetReadDeadline(wallNow().Add(readHeaderTimeout))
		}
		if err := readRequestHead(c.br, &c.head); err != nil {
			var ref *refusal
			if errors.As(err, &ref) {
				c.refuse(ref)
			}
			return // a read error or timeout: nobody to answer
		}
		if err := c.setURL(); err != nil {
			c.refuse(&refusal{http.StatusBadRequest, err.Error()})
			return
		}
		now := wallNow()
		_ = c.rwc.SetWriteDeadline(now.Add(writeTimeout))

		h := &c.head
		closeAfter := h.close || (h.minor == 0 && !h.keepAlive) || c.d.draining.Load()
		r := c.req
		r.Method, r.RequestURI, r.Host, r.Close = h.method, h.target, h.host, closeAfter
		r.ProtoMajor, r.ProtoMinor, r.Proto = 1, h.minor, "HTTP/1.1"
		if h.minor == 0 {
			r.Proto = "HTTP/1.0"
		}
		c.w.reset(h.method == http.MethodHead)
		c.d.srv.ServeHTTP(&c.w, r)
		c.ctx.disarm()

		out := c.w.finish(now, h.minor == 1, closeAfter)
		if _, err := c.rwc.Write(out); err != nil || closeAfter {
			if err == nil && c.br.Buffered() > 0 {
				c.linger()
			}
			return
		}
		c.state.Store(connIdle)
		if c.d.draining.Load() && c.state.CompareAndSwap(connIdle, connClosed) {
			return
		}
	}
}

// setURL fills the request's URL from its target. An origin-form target
// without escapes is split in place; anything else goes through
// url.ParseRequestURI, as net/http parses every target.
func (c *conn) setURL() error {
	h := &c.head
	t := h.target
	if t[0] == '/' && !hasEscapeOrCTL(t) {
		c.url = url.URL{Path: t}
		if i := strings.IndexByte(t, '?'); i >= 0 {
			c.url.Path, c.url.RawQuery = t[:i], t[i+1:]
			c.url.ForceQuery = i == len(t)-1
		}
		c.req.URL = &c.url
		return nil
	}
	u, err := url.ParseRequestURI(t)
	if err != nil {
		return errors.New("malformed request target")
	}
	if u.Host != "" {
		h.host = u.Host // absolute-form names the host
	}
	c.req.URL = u
	return nil
}

func hasEscapeOrCTL(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b == '%' || b < ' ' || b == 0x7f {
			return true
		}
	}
	return false
}

// refuse answers a request the loop will not serve with a complete JSON
// error document and closes the connection, draining what the client sent
// after it.
func (c *conn) refuse(r *refusal) {
	c.w.reset(false)
	c.d.srv.writeJSON(&c.w, r.status, errorBody{Error: r.msg})
	now := wallNow()
	_ = c.rwc.SetWriteDeadline(now.Add(writeTimeout))
	if _, err := c.rwc.Write(c.w.finish(now, true, true)); err == nil {
		c.linger()
	}
}

// linger half-closes the connection and reads what the client still sends,
// for up to lingerTimeout and within the read budget, so that closing a
// socket with unread bytes does not reset it under the response.
func (c *conn) linger() {
	rwc := c.rwc
	if bc, ok := rwc.(*budgetConn); ok {
		rwc = bc.Conn
	}
	if cw, ok := rwc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() // best effort: the close that follows ends it anyway
	}
	_ = c.rwc.SetReadDeadline(wallNow().Add(lingerTimeout))
	_, _ = io.Copy(io.Discard, c.br) // ends at EOF, the deadline or the budget
}

// headBuffered reports whether a whole request head already sits in br, so
// that reading it needs no read from the socket and no header deadline.
func headBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered()) // never reads: at most what is buffered
	return bytes.Contains(b, []byte("\n\r\n")) || bytes.Contains(b, []byte("\n\n"))
}

// reqCtx is the context of the request a connection is serving; the
// connection reuses it for each of its requests, so it is valid for one
// ServeHTTP call. It watches the client's socket only once Done is asked
// for: arm starts a goroutine that peeks past what is buffered and cancels
// the context if the client goes away, and the connection stops it when
// ServeHTTP returns.
type reqCtx struct {
	c *conn

	mu     sync.Mutex
	armed  context.Context // child of the door's base; nil until Done
	cancel context.CancelFunc
	stop   chan struct{} // closed by disarm
	exited chan struct{} // closed by the watch goroutine
}

func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func (x *reqCtx) Done() <-chan struct{} { return x.arm().Done() }

func (x *reqCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.armed == nil {
		return x.c.d.base.Err()
	}
	return x.armed.Err()
}

// Value forwards to the armed context once there is one, so a context
// derived after Done (a deadline) is registered as its child directly.
func (x *reqCtx) Value(key any) any {
	x.mu.Lock()
	parent := x.armed
	x.mu.Unlock()
	if parent == nil {
		parent = x.c.d.base
	}
	return parent.Value(key)
}

// arm starts the disconnect watch once per request and returns the watched
// context.
func (x *reqCtx) arm() context.Context {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.armed == nil {
		c := x.c
		x.armed, x.cancel = context.WithCancel(c.d.base)
		x.stop, x.exited = make(chan struct{}), make(chan struct{})
		c.d.srv.met.watched.Inc()
		// The watch outlives the header deadline; disarm ends it.
		_ = c.rwc.SetReadDeadline(time.Time{})
		go c.watch(x.cancel, x.stop, x.exited)
	}
	return x.armed
}

// disarm ends the request's watch, if it was armed, and cancels its context.
// Only the connection's goroutine calls it, after ServeHTTP.
func (x *reqCtx) disarm() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.armed == nil {
		return
	}
	close(x.stop)
	_ = x.c.rwc.SetReadDeadline(aLongTimeAgo) // unblocks the watch's peek
	<-x.exited
	x.cancel()
	x.armed, x.cancel = nil, nil
}

// watch peeks one byte past what the connection has buffered until the peek
// fails. A failure it did not cause by stopping means the client is gone, and
// cancels the request. What it reads stays buffered for the next request.
func (c *conn) watch(cancel context.CancelFunc, stop, exited chan struct{}) {
	defer close(exited)
	for {
		n := c.br.Buffered()
		if n >= c.br.Size() {
			<-stop // a full buffer of pipelined requests: the client is there
			return
		}
		if _, err := c.br.Peek(n + 1); err != nil {
			select {
			case <-stop:
			default:
				cancel()
			}
			return
		}
	}
}

// response is a connection's ResponseWriter: it keeps the status and the
// body, and finish lays out the whole response for one Write.
type response struct {
	h      http.Header
	status int
	head   bool // a HEAD request: the body is counted, not sent
	body   []byte
	out    []byte
	keys   []string
	date   []byte
	dateAt int64 // the Unix second date was formatted for
}

func (w *response) reset(head bool) {
	clear(w.h)
	w.status, w.head, w.body = 0, head, w.body[:0]
}

func (w *response) Header() http.Header { return w.h }

func (w *response) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// finish lays out the response: the status line, the handler's headers
// sorted by key with Content-Length always the body's length, Date, the
// Connection header an HTTP/1.1 close or an HTTP/1.0 keep-alive calls for,
// and the body (none for HEAD). The result is valid until the next request.
func (w *response) finish(now time.Time, proto11, closeAfter bool) []byte {
	w.WriteHeader(http.StatusOK)
	out := append(w.out[:0], "HTTP/1.0 "...)
	if proto11 {
		out[7] = '1'
	}
	out = strconv.AppendInt(out, int64(w.status), 10)
	out = append(out, ' ')
	if text := http.StatusText(w.status); text != "" {
		out = append(out, text...)
	} else {
		out = append(out, "status code "...)
		out = strconv.AppendInt(out, int64(w.status), 10)
	}
	out = append(out, "\r\n"...)

	w.keys = w.keys[:0]
	for k := range w.h {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	sentLength := false
	for _, k := range w.keys {
		if k == "Content-Length" {
			out = appendLength(out, len(w.body))
			sentLength = true
			continue
		}
		for _, v := range w.h[k] {
			out = append(out, k...)
			out = append(out, ": "...)
			out = append(out, v...)
			out = append(out, "\r\n"...)
		}
	}
	if !sentLength {
		out = appendLength(out, len(w.body))
	}

	if sec := now.Unix(); sec != w.dateAt {
		w.date, w.dateAt = now.UTC().AppendFormat(w.date[:0], http.TimeFormat), sec
	}
	out = append(out, "Date: "...)
	out = append(out, w.date...)
	out = append(out, "\r\n"...)
	switch {
	case closeAfter && proto11:
		out = append(out, "Connection: close\r\n"...)
	case !proto11 && !closeAfter:
		out = append(out, "Connection: keep-alive\r\n"...)
	}
	out = append(out, "\r\n"...)
	if !w.head {
		out = append(out, w.body...)
	}
	w.out = out
	return out
}

func appendLength(out []byte, n int) []byte {
	out = append(out, "Content-Length: "...)
	out = strconv.AppendInt(out, int64(n), 10)
	return append(out, "\r\n"...)
}
