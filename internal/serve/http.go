package serve

// http.go — the hardened HTTP surface over the engine. Every response is
// encoded to a buffer first and written with an explicit Content-Length:
// a shed or failed request gets a complete JSON error document with a
// Retry-After, never a hung connection or a truncated body. Staleness is
// explicit — every data response carries the epoch and how many committed
// rounds it lags the most advanced shard, and degraded mode adds a header
// instead of silently serving old data.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sleepnet/internal/metrics"
)

// Staleness and posture headers on every response.
const (
	// HeaderEpoch: the served epoch's round floor.
	HeaderEpoch = "X-Sleepnet-Epoch"
	// HeaderStale: committed rounds the served epoch lags the monitor.
	HeaderStale = "X-Sleepnet-Stale-Rounds"
	// HeaderDegraded: present ("true") when the monitor quarantined a shard
	// or died; the epoch may be permanently stale.
	HeaderDegraded = "X-Sleepnet-Degraded"
)

// ServerConfig configures the HTTP layer.
type ServerConfig struct {
	// Metrics receives request/shed counters and the latency histogram.
	Metrics *metrics.Registry
	// now is the admission clock; nil is the wall clock. Tests fix it.
	now func() time.Time
}

const (
	// requestTimeout bounds an aggregation's scan, propagated into it as a
	// context deadline. A point lookup has nothing to cut short and takes
	// no deadline.
	requestTimeout = 2 * time.Second
	// maxRequestBytes is the per-connection read budget: a client that
	// dribbles or floods more than this many request bytes is disconnected.
	maxRequestBytes = 64 << 10
	// readHeaderTimeout, idleTimeout and writeTimeout are the connection
	// loop's deadlines (conn.go): reading a request head, waiting for the
	// next request, and handling and writing one.
	readHeaderTimeout = 2 * time.Second
	idleTimeout       = 30 * time.Second
	writeTimeout      = 5 * time.Second
	// maxConns caps concurrently accepted connections; excess dials queue in
	// the kernel backlog instead of consuming server memory.
	maxConns = 256
)

// The three admission classes, one per query kind: lookups shed last,
// summaries first. Nothing varies them; they are never written.
var (
	lookupLimits  = classLimits{RPS: 200000, Burst: 20000, Queue: 1024, MaxWait: 50 * time.Millisecond}
	rangeLimits   = classLimits{RPS: 2000, Burst: 200, Queue: 64, MaxWait: 100 * time.Millisecond}
	summaryLimits = classLimits{RPS: 100, Burst: 20, Queue: 8, MaxWait: 100 * time.Millisecond}
)

// serverMetrics caches the HTTP layer's instruments.
type serverMetrics struct {
	requests   *metrics.Counter
	ok         *metrics.Counter
	badRequest *metrics.Counter
	notFound   *metrics.Counter
	shed429    *metrics.Counter
	shed503    *metrics.Counter
	notReady   *metrics.Counter
	watched    *metrics.Counter
	latency    *metrics.Histogram
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	if r == nil {
		return &serverMetrics{}
	}
	return &serverMetrics{
		requests:   r.Counter("serve.http_requests"),
		ok:         r.Counter("serve.http_ok"),
		badRequest: r.Counter("serve.http_bad_request"),
		notFound:   r.Counter("serve.http_not_found"),
		shed429:    r.Counter("serve.http_shed_rate"),
		shed503:    r.Counter("serve.http_shed_overload"),
		notReady:   r.Counter("serve.http_not_ready"),
		watched:    r.Counter("serve.http_watched"),
		latency: r.Histogram("serve.http_latency", metrics.UnitSeconds,
			[]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}),
	}
}

// Server is the hardened HTTP front end over an Engine.
type Server struct {
	eng *Engine
	cfg ServerConfig
	met *serverMetrics

	lookup  *bucket
	ranges  *bucket
	summary *bucket
}

// NewServer wires a server over an engine.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	if cfg.now == nil {
		//lint:allow nowallclock: admission control rations a real resource; the clock is injected and overridable in tests
		cfg.now = time.Now
	}
	return &Server{
		eng:     eng,
		cfg:     cfg,
		met:     newServerMetrics(cfg.Metrics),
		lookup:  newBucket(lookupLimits),
		ranges:  newBucket(rangeLimits),
		summary: newBucket(summaryLimits),
	}
}

// errorBody is the JSON document every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// encodingFailed is the body of the 500 a value without a JSON form (a
// non-finite float) gets.
var encodingFailed = []byte(`{"error":"encoding failed"}`)

// bodyPool holds the buffers /v1/block answers are appended into.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// writeJSON marshals v fully, then writes it with writeBody.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		body, status = encodingFailed, http.StatusInternalServerError
	}
	writeBody(w, status, body)
}

// writeBody writes status + headers + a complete body in one shot with an
// explicit Content-Length — a client never sees partial JSON.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that vanished mid-write is the client's problem
}

// shed writes an explicit shed/error response with a Retry-After.
func (s *Server) shed(w http.ResponseWriter, status int, retry time.Duration, msg string) {
	sec := int(retry / time.Second)
	if retry%time.Second != 0 || sec == 0 {
		sec++ // ceil, minimum 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	s.writeJSON(w, status, errorBody{Error: msg})
}

// bucketFor maps a query kind to its admission class.
func (s *Server) bucketFor(k QueryKind) *bucket {
	switch k {
	case KindBlock:
		return s.lookup
	case KindSummary:
		return s.summary
	default:
		return s.ranges
	}
}

// blocksBody is the KindRange response document.
type blocksBody struct {
	Epoch     int           `json:"epoch"`
	Truncated bool          `json:"truncated"`
	Blocks    []BlockStatus `json:"blocks"`
}

// ServeHTTP implements the full query surface: parse, posture headers,
// admission, deadline-bounded execution, buffered write.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	stop := s.met.latency.Time()
	defer stop()

	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "only GET is served"})
		return
	}
	req, err := ParseRequest(r.URL.Path, r.URL.RawQuery)
	if err != nil {
		s.met.badRequest.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	st := s.eng.Status()
	h := w.Header()
	h.Set(HeaderEpoch, strconv.Itoa(st.Epoch))
	h.Set(HeaderStale, strconv.Itoa(st.StaleRounds))
	if st.Degraded {
		h.Set(HeaderDegraded, "true")
	}

	if req.Kind == KindStatus {
		// Posture is always served: it is how clients find out WHY they are
		// being shed, so it takes no token and touches no epoch.
		s.met.ok.Inc()
		s.writeJSON(w, http.StatusOK, st)
		return
	}
	ep := s.eng.Epoch()
	if ep == nil {
		s.met.notReady.Inc()
		s.shed(w, http.StatusServiceUnavailable, time.Second, "no epoch sealed yet")
		return
	}

	switch res, retry := s.bucketFor(req.Kind).admit(r.Context(), s.cfg.now); res {
	case admitRate:
		s.met.shed429.Inc()
		s.shed(w, http.StatusTooManyRequests, retry, req.Kind.String()+" rate exceeded")
		return
	case admitOverload:
		s.met.shed503.Inc()
		s.shed(w, http.StatusServiceUnavailable, retry, req.Kind.String()+" queue full")
		return
	}

	switch req.Kind {
	case KindBlock:
		seg, i, found := ep.find(req.Block)
		if !found {
			s.met.notFound.Inc()
			s.writeJSON(w, http.StatusNotFound, errorBody{Error: "block not monitored: " + req.Block.String()})
			return
		}
		buf := bodyPool.Get().(*[]byte)
		if body, ok := ep.appendStatus((*buf)[:0], seg, i); ok {
			s.met.ok.Inc()
			writeBody(w, http.StatusOK, body)
			*buf = body[:0]
		} else {
			writeBody(w, http.StatusInternalServerError, encodingFailed)
		}
		bodyPool.Put(buf)
	case KindRange:
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		blocks, truncated, err := ep.Range(ctx, req.Lo, req.Hi, req.Limit, req.OnlyDown)
		if err != nil {
			s.met.shed503.Inc()
			s.shed(w, http.StatusServiceUnavailable, time.Second, "listing exceeded the request deadline")
			return
		}
		if blocks == nil {
			blocks = []BlockStatus{}
		}
		s.met.ok.Inc()
		s.writeJSON(w, http.StatusOK, blocksBody{Epoch: ep.Rounds, Truncated: truncated, Blocks: blocks})
	case KindSummary:
		ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
		defer cancel()
		sum, err := ep.Summary(ctx)
		if err != nil {
			s.met.shed503.Inc()
			s.shed(w, http.StatusServiceUnavailable, time.Second, "summary exceeded the request deadline")
			return
		}
		s.met.ok.Inc()
		s.writeJSON(w, http.StatusOK, sum)
	}
}

// cappedListener enforces the connection cap: Accept blocks once maxConns
// connections are in flight, leaving excess dials in the kernel backlog
// (bounded there by the OS) instead of in server memory.
type cappedListener struct {
	net.Listener
	slots  chan struct{}
	budget int64
}

func (l *cappedListener) Accept() (net.Conn, error) {
	l.slots <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.slots
		return nil, err
	}
	return &budgetConn{Conn: c, release: l.slots, remaining: l.budget}, nil
}

// budgetConn counts request bytes and disconnects a client that exceeds its
// read budget — the oversized-request and infinite-dribble defence.
type budgetConn struct {
	net.Conn
	release   chan struct{}
	remaining int64
	closeOnce sync.Once
}

func (c *budgetConn) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, fmt.Errorf("serve: connection read budget exhausted")
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.Conn.Read(p)
	c.remaining -= int64(n)
	return n, err
}

func (c *budgetConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() { <-c.release })
	return err
}
