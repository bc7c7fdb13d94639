package faults

// clientchaos.go — hostile HTTP clients for the serving layer's overload
// harness. Where chaos.go attacks the monitor process and faults.go attacks
// the wire, these attack the *front door*: slow-loris connections that
// dribble half a request forever, connection churn, request floods, and
// oversized/malformed queries. They are load generators, not simulations —
// they open real sockets against a real listener — so their timing is
// wall-clock by nature; what stays deterministic is the request *content*,
// drawn from internal/prf off the attack seed.
//
// Every attacker respects its context: cancel it and the goroutines drain.
// Counters are collected with atomics and read after Wait returns. The
// goroutines are one a client, all live at once until the context ends —
// the concurrency is the attack — so none is dealt through par.For, which
// runs at most GOMAXPROCS at a time.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sleepnet/internal/prf"
)

// AttackStats counts what one attack saw. All fields are totals across the
// attack's workers.
type AttackStats struct {
	// Requests is the number of request attempts (or connections, for the
	// connection-level attacks).
	Requests int64
	// OK counts 2xx responses.
	OK int64
	// Shed counts explicit 429/503 responses.
	Shed int64
	// Rejected counts 4xx responses (the malformed attack wants these).
	Rejected int64
	// Dropped counts dial failures, resets, and timeouts — connections the
	// server refused or cut, which is the *correct* response to abuse.
	Dropped int64
}

// attackCounters is the atomic accumulation form of AttackStats.
type attackCounters struct {
	requests, ok, shed, rejected, dropped atomic.Int64
}

func (c *attackCounters) stats() AttackStats {
	return AttackStats{
		Requests: c.requests.Load(),
		OK:       c.ok.Load(),
		Shed:     c.shed.Load(),
		Rejected: c.rejected.Load(),
		Dropped:  c.dropped.Load(),
	}
}

func (c *attackCounters) note(status int) {
	switch {
	case status >= 200 && status < 300:
		c.ok.Add(1)
	case status == 429 || status == 503:
		c.shed.Add(1)
	case status >= 400 && status < 500:
		c.rejected.Add(1)
	default:
		c.dropped.Add(1)
	}
}

// SlowLoris holds conns connections open against addr, dribbling one header
// byte per interval and never finishing the request, until ctx is
// cancelled. A hardened server cuts each connection (read-header timeout or
// byte budget); an unhardened one leaks a goroutine and a socket per conn.
// Returns how many connections the server terminated.
func SlowLoris(ctx context.Context, addr string, conns int, interval time.Duration) int64 {
	var terminated atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d := net.Dialer{Timeout: time.Second}
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				terminated.Add(1)
				return
			}
			defer c.Close()
			// A valid prefix, then an endless dribble of header bytes.
			req := fmt.Sprintf("GET /v1/block/10.0.%d HTTP/1.1\r\nHost: sleepnet\r\nX-Dribble: ", id%256)
			for j := 0; ; j++ {
				var b byte
				if j < len(req) {
					b = req[j]
				} else {
					b = byte('a' + prf.Hash(0x51047, uint64(id), uint64(j))%26)
				}
				if _, err := c.Write([]byte{b}); err != nil {
					terminated.Add(1)
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(interval):
				}
			}
		}(i)
	}
	wg.Wait()
	return terminated.Load()
}

// ConnChurn opens and immediately abandons connections against addr as fast
// as workers allow until ctx is cancelled — the accept-queue churn attack.
// Returns the number of connections cycled.
func ConnChurn(ctx context.Context, addr string, workers int) int64 {
	var cycled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := net.Dialer{Timeout: 250 * time.Millisecond}
			for ctx.Err() == nil {
				c, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					continue
				}
				_ = c.Close()
				cycled.Add(1)
			}
		}()
	}
	wg.Wait()
	return cycled.Load()
}

// FloodConfig shapes a request flood.
type FloodConfig struct {
	// Addr is the host:port under attack.
	Addr string
	// Workers is the number of concurrent clients.
	Workers int
	// Seed drives the deterministic request mix.
	Seed uint64
	// Paths is the request mix, drawn uniformly by PRF. Default: a mix of
	// block lookups, listings, and summaries.
	Paths []string
	// OnLatency, when set, receives each successful request's latency —
	// the chaos harness uses it to bound p99 under shedding.
	OnLatency func(time.Duration)
}

// Flood hammers addr with well-formed queries from Workers concurrent
// clients until ctx is cancelled. Every response must be a complete HTTP
// response; bodies are drained and discarded. Returns totals.
func Flood(ctx context.Context, cfg FloodConfig) AttackStats {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if len(cfg.Paths) == 0 {
		cfg.Paths = []string{
			"/v1/block/10.0.1", "/v1/block/10.0.2", "/v1/block/99.99.99",
			"/v1/blocks?limit=50", "/v1/blocks?down=true&limit=20",
			"/v1/summary", "/v1/status",
		}
	}
	var ctr attackCounters
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := &http.Client{
				Timeout: 5 * time.Second,
				Transport: &http.Transport{
					MaxIdleConnsPerHost: 4,
				},
			}
			defer client.CloseIdleConnections()
			for i := 0; ctx.Err() == nil; i++ {
				path := cfg.Paths[prf.Hash(cfg.Seed, uint64(id), uint64(i))%uint64(len(cfg.Paths))]
				req, err := http.NewRequestWithContext(ctx, "GET", "http://"+cfg.Addr+path, nil)
				if err != nil {
					ctr.dropped.Add(1)
					continue
				}
				ctr.requests.Add(1)
				//lint:allow nowallclock: client-side latency measurement of a real socket; never persisted
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					ctr.dropped.Add(1)
					continue
				}
				_, copyErr := io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if copyErr != nil {
					ctr.dropped.Add(1)
					continue
				}
				if resp.StatusCode < 300 && cfg.OnLatency != nil {
					//lint:allow nowallclock: client-side latency measurement of a real socket; never persisted
					cfg.OnLatency(time.Since(start))
				}
				ctr.note(resp.StatusCode)
			}
		}(w)
	}
	wg.Wait()
	return ctr.stats()
}

// Malformed throws protocol garbage at addr until ctx is cancelled:
// oversized URLs, bad octets, negative limits, header-injection shapes, and
// raw non-HTTP bytes. Every attempt must end in an explicit 4xx/shed
// response or a dropped connection — anything 2xx is a parser hole. Returns
// totals; the caller asserts OK == 0.
func Malformed(ctx context.Context, addr string, workers int, seed uint64) AttackStats {
	if workers <= 0 {
		workers = 2
	}
	longPath := "/v1/block/" + strings.Repeat("1.", 200)
	attacks := []string{
		"GET /v1/block/300.1.1 HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/block/../../etc/passwd HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/blocks?limit=-1 HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/blocks?limit=99999999999999999999 HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/blocks?" + strings.Repeat("a=b&", 200) + " HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET " + longPath + " HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /v1/summary HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nboom",
		"\x00\x01\x02\x03 not http at all\r\n\r\n",
		"GET /v1/status HTTP/9.9\r\nHost: x\r\n\r\n",
	}
	var ctr attackCounters
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d := net.Dialer{Timeout: time.Second}
			for i := 0; ctx.Err() == nil; i++ {
				raw := attacks[prf.Hash(seed, uint64(id), uint64(i))%uint64(len(attacks))]
				c, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					ctr.dropped.Add(1)
					continue
				}
				ctr.requests.Add(1)
				_ = c.SetDeadline(deadlineIn(2 * time.Second))
				if _, err := c.Write([]byte(raw)); err != nil {
					ctr.dropped.Add(1)
					_ = c.Close()
					continue
				}
				status, err := readStatus(c)
				if err != nil {
					ctr.dropped.Add(1) // server cut the connection: acceptable
				} else {
					ctr.note(status)
				}
				_ = c.Close()
			}
		}(w)
	}
	wg.Wait()
	return ctr.stats()
}

// deadlineIn converts a timeout into an absolute socket deadline.
func deadlineIn(d time.Duration) time.Time {
	//lint:allow nowallclock: socket deadline for a real connection; never persisted
	return time.Now().Add(d)
}

// readStatus reads just enough of an HTTP/1.x response to extract the
// status code.
func readStatus(c net.Conn) (int, error) {
	buf := make([]byte, 64)
	n, err := io.ReadAtLeast(c, buf, 12) // "HTTP/1.1 NNN"
	if err != nil {
		return 0, err
	}
	line := string(buf[:n])
	if !strings.HasPrefix(line, "HTTP/1.") || len(line) < 12 {
		return 0, fmt.Errorf("not an http response: %q", line)
	}
	status := 0
	for _, ch := range line[9:12] {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("bad status line: %q", line)
		}
		status = status*10 + int(ch-'0')
	}
	return status, nil
}
