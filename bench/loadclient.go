package main

// loadclient.go — the serve-mixed client: a seeded request schedule and a
// small HTTP/1.1 client over a raw TCP connection. The client is lean on
// purpose: it shares two cores with the server it measures, so every cycle
// it spends parsing is a cycle of noise on the server's numbers.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"time"

	"sleepnet/internal/netsim"
)

type reqKind uint8

const (
	reqLookup reqKind = iota
	reqRange
	reqSummary
	reqStatus
	numReqKinds
)

// Request mix of the open-loop phase: shares of lookups, listings, summaries
// and status reads.
var mixShares = [numReqKinds]float64{reqLookup: 0.94, reqRange: 0.05, reqSummary: 0.005, reqStatus: 0.005}

// schedReq is one scheduled request: when it is due (ns after the phase
// starts), what it asks, and for a lookup which block of the epoch.
type schedReq struct {
	due   int64
	kind  reqKind
	block int
}

// makeSchedule lays out a fixed-rate open-loop schedule: request i is due at
// i/rate seconds, its kind drawn from mixShares and its block uniformly from
// the epoch, all from the seed. The same seed gives the same sequence.
func makeSchedule(seed uint64, rate, durationS float64, nBlocks int) []schedReq {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(rate * durationS)
	out := make([]schedReq, n)
	for i := range out {
		r := schedReq{due: int64(math.Round(float64(i) * 1e9 / rate)), block: rng.Intn(nBlocks)}
		u := rng.Float64()
		for k := reqKind(0); k < numReqKinds; k++ {
			if u < mixShares[k] || k == numReqKinds-1 {
				r.kind = k
				break
			}
			u -= mixShares[k]
		}
		out[i] = r
	}
	return out
}

// epochBlockID is the i-th block id of the synthetic epoch: 1.0.0 upward,
// as cmd/loadgen lays its epoch out.
func epochBlockID(i int) netsim.BlockID {
	return netsim.MakeBlockID(byte(1+i>>16), byte(i>>8), byte(i))
}

// requestPath renders the request's URL path and query.
func (r schedReq) path() string {
	switch r.kind {
	case reqLookup:
		s := epochBlockID(r.block).String() // "a.b.c/24"
		return "/v1/block/" + s[:len(s)-3]
	case reqRange:
		return "/v1/blocks?limit=50"
	case reqSummary:
		return "/v1/summary"
	default:
		return "/v1/status"
	}
}

// connBudget is the server's default per-connection read budget
// (serve.ServerConfig.MaxRequestBytes); rotateAt is where a well-behaved
// client opens a fresh connection rather than have a request cut.
const (
	connBudget = 64 << 10
	rotateAt   = connBudget - 4<<10
)

// client is one connection's worth of load: it sends one request at a time
// and reads the whole response before the next.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	sent int // request bytes written on the current connection

	req  []byte // request scratch
	body []byte // response body scratch

	rotations    int // fresh connections opened on reaching rotateAt
	budgetCloses int // connections the server cut (should stay 0)
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close() // nothing to recover from a failed close of a finished connection
		c.conn = nil
	}
}

func (c *client) dial() error {
	c.close()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	// One deadline for the connection's whole life: it is rotated out after
	// rotateAt bytes, well inside this, and a hung server fails the run
	// instead of hanging it.
	if err := conn.SetDeadline(wallNow().Add(30 * time.Second)); err != nil {
		_ = conn.Close() // the deadline error is the one to report
		return err
	}
	c.conn, c.sent = conn, 0
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 16<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

// do sends GET path and returns the status code and the body, which aliases
// the client's scratch and is valid until the next call.
func (c *client) do(path string) (status int, body []byte, err error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	if c.conn == nil || c.sent+len(c.req) > rotateAt {
		if c.conn != nil {
			c.rotations++
		}
		if err := c.dial(); err != nil {
			return 0, nil, err
		}
	}
	c.sent += len(c.req)
	if _, err := c.conn.Write(c.req); err != nil {
		c.budgetCloses++
		c.close()
		return 0, nil, err
	}
	status, body, err = c.readResponse()
	if err != nil {
		c.budgetCloses++
		c.close()
	}
	return status, body, err
}

// readResponse parses one HTTP/1.1 response with a Content-Length body.
func (c *client) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const key = "content-length:"
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(key):])))
			if err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// latencyLog collects per-kind latencies and status counts for one
// connection; logs are merged after the phase.
type latencyLog struct {
	ms       [numReqKinds][]float64
	lateMS   []float64 // how far behind its due time each request was sent
	status   map[int]int
	failures int
	checked  int // lookups compared byte for byte against Epoch.Lookup
}

func newLatencyLog() *latencyLog { return &latencyLog{status: map[int]int{}} }

// mergeLogs folds the connections' logs into one.
func mergeLogs(logs []*latencyLog) *latencyLog {
	l := newLatencyLog()
	for _, o := range logs {
		for k := range l.ms {
			l.ms[k] = append(l.ms[k], o.ms[k]...)
		}
		l.lateMS = append(l.lateMS, o.lateMS...)
		for code, n := range o.status {
			l.status[code] += n
		}
		l.failures += o.failures
		l.checked += o.checked
	}
	return l
}

func (l *latencyLog) requests() int {
	n := 0
	for k := range l.ms {
		n += len(l.ms[k])
	}
	return n + l.failures
}

// waitUntil waits for the given nanos() reading and returns how late (ns)
// it came back. Long waits sleep; the last stretch yields the processor in a
// loop instead, because a sleeping goroutine wakes some 50-100 us late and
// that slack would be charged to the server as latency. Yielding, not
// spinning: the server's goroutines share the two processors.
func waitUntil(due int64) int64 {
	for {
		now := nanos()
		if now >= due {
			return now - due
		}
		if gap := due - now; gap > 400_000 {
			time.Sleep(time.Duration(gap - 200_000))
		} else {
			runtime.Gosched()
		}
	}
}
