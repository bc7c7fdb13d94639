package main

// servemixed.go — the serve-mixed workload: the read side of `sleepscan
// serve`, reached through real loopback sockets. Client and server share the
// process and its two processors; traffic crosses the kernel's loopback
// interface, never a link.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
	"sleepnet/internal/serve"
)

const (
	// serveBlocks is the sealed epoch's size, as cmd/loadgen's default.
	serveBlocks = 1 << 20
	serveRounds = 3
	// closedLoopLookups is one timed repetition of the closed loop: each of
	// the loadConns connections completes this many lookups back to back.
	closedLoopLookups = 15000
	// openLoopRate is the open-loop phase's fixed arrival rate, all
	// connections together.
	openLoopRate = 8000.0
	// lookupCheckEvery: one lookup in this many is compared byte for byte
	// with what Epoch.Lookup returns for the same id.
	lookupCheckEvery = 256
)

// buildEpoch seals a synthetic epoch of n blocks through the EpochSink
// contract, the way the live monitor feeds the engine (and the way
// cmd/loadgen builds its epoch). Values come from the seed.
func buildEpoch(seed uint64, n int) *serve.Engine {
	rng := rand.New(rand.NewSource(int64(seed)))
	eng := serve.NewEngine(serve.EngineConfig{MinClassifyRounds: 1})
	eng.BeginRun(monitor.RunInfo{
		Shards: 1, Rounds: serveRounds, Blocks: n,
		Start:  time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC),
		Period: 660 * time.Second, Seed: seed,
	})
	pub := make([]monitor.PubBlock, n)
	for i := range pub {
		pub[i] = monitor.PubBlock{ID: epochBlockID(i)}
	}
	eng.ResyncShard(0, 0, pub)
	deltas := make([]monitor.RoundPub, n)
	for r := 0; r < serveRounds; r++ {
		for i := range deltas {
			v := rng.Float64()
			deltas[i] = monitor.RoundPub{Avail: v, Long: 0.5 + v/2}
			if r == serveRounds-1 && rng.Intn(50) == 0 {
				deltas[i].Event = monitor.PubEventDown
			}
		}
		eng.PublishRound(0, r, deltas)
	}
	return eng
}

// frontDoor is a running server on a loopback port.
type frontDoor struct {
	eng    *serve.Engine
	srv    *serve.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

// openFrontDoor serves eng with the default ServerConfig: production
// admission limits and the 64 KiB per-connection read budget.
func openFrontDoor(eng *serve.Engine) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fd := &frontDoor{
		eng: eng, srv: serve.NewServer(eng, serve.ServerConfig{}),
		addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1),
	}
	go func() { fd.done <- fd.srv.Serve(ctx, ln) }()
	return fd, nil
}

// close stops the server and waits for it to have stopped.
func (fd *frontDoor) close() error {
	fd.cancel()
	return <-fd.done
}

// withFrontDoor is the workload's frame: seal the epoch (the set-up, timed
// under the given metric), open the front door and the client connections,
// run body, then close the connections and stop the server.
func withFrontDoor(res *result, seed uint64, setupMetric string, body func(fd *frontDoor, clients []*client) error) error {
	var eng *serve.Engine
	if err := repeatSetup(res, setupMetric, func() error {
		eng = nil // let the previous epoch go before building the next
		eng = buildEpoch(seed, serveBlocks)
		return nil
	}); err != nil {
		return err
	}
	ep := eng.Epoch()
	if err := check(ep != nil && ep.Len() == serveBlocks && ep.Rounds == serveRounds,
		"sealed epoch is not %d blocks at round %d", serveBlocks, serveRounds); err != nil {
		return err
	}
	fd, err := openFrontDoor(eng)
	if err != nil {
		return err
	}
	clients := make([]*client, loadConns)
	for i := range clients {
		clients[i] = newClient(fd.addr)
	}
	err = body(fd, clients)
	for _, c := range clients {
		c.close()
	}
	if cerr := fd.close(); err == nil && cerr != nil {
		err = fmt.Errorf("server: %w", cerr)
	}
	return err
}

// exchange performs one request and applies the output checks to the
// answer: 2xx, a JSON body, and every lookupCheckEvery-th lookup equal to
// Epoch.Lookup's answer for that id.
func exchange(c *client, ep *serve.Epoch, r schedReq, seq int, log *latencyLog) (ok bool) {
	status, body, err := c.do(r.path())
	if err != nil {
		log.failures++
		return false
	}
	log.status[status]++
	if status < 200 || status > 299 || !json.Valid(body) {
		log.failures++
		return false
	}
	if r.kind == reqLookup && seq%lookupCheckEvery == 0 {
		want, found := ep.Lookup(epochBlockID(r.block))
		enc, err := json.Marshal(want)
		if !found || err != nil || !bytes.Equal(enc, body) {
			log.failures++
			return false
		}
		log.checked++
	}
	return true
}

// closedLoop is one timed repetition: every connection sends its next
// lookup as soon as the previous answer is in, closedLoopLookups times.
func closedLoop(fd *frontDoor, clients []*client, rng *rand.Rand) *latencyLog {
	ep := fd.eng.Epoch()
	logs := make([]*latencyLog, len(clients))
	plans := make([][]int, len(clients))
	for i := range plans {
		plans[i] = make([]int, closedLoopLookups)
		for j := range plans[i] {
			plans[i][j] = rng.Intn(serveBlocks)
		}
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			log := newLatencyLog()
			for seq, block := range plans[i] {
				t0 := nanos()
				if exchange(c, ep, schedReq{kind: reqLookup, block: block}, seq, log) {
					log.ms[reqLookup] = append(log.ms[reqLookup], float64(nanos()-t0)/1e6)
				}
			}
			logs[i] = log
		}(i, c)
	}
	wg.Wait()
	return mergeLogs(logs)
}

// pace replays one connection's share of a schedule — requests first,
// first+stride, ... — sending each when it is due, or as soon after as the
// connection is free. Latency runs from the due time, not the send time, so
// a stall is charged to every request it delays and not only to the one that
// stalled. The clock is passed in so that the accounting can be tested
// against an injected stall.
func pace(sched []schedReq, first, stride int, start int64, now func() int64, wait func(due int64) int64,
	send func(seq int, r schedReq) bool, log *latencyLog) {
	for seq := first; seq < len(sched); seq += stride {
		r := sched[seq]
		due := start + r.due
		late := wait(due)
		if send(seq/stride, r) {
			log.ms[r.kind] = append(log.ms[r.kind], float64(now()-due)/1e6)
			log.lateMS = append(log.lateMS, float64(late)/1e6)
		}
	}
}

// openLoop replays a schedule over the connections: request i belongs to
// connection i mod len(clients).
func openLoop(fd *frontDoor, clients []*client, sched []schedReq) *latencyLog {
	ep := fd.eng.Epoch()
	logs := make([]*latencyLog, len(clients))
	start := nanos() + 10_000_000 // let every connection goroutine get going
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			log := newLatencyLog()
			pace(sched, i, len(clients), start, nanos, waitUntil, func(seq int, r schedReq) bool {
				return exchange(c, ep, r, seq, log)
			}, log)
			logs[i] = log
		}(i, c)
	}
	wg.Wait()
	return mergeLogs(logs)
}

func runServe(e env) (*result, error) {
	res := newResult()
	err := withFrontDoor(res, e.seed, "setup_s", func(fd *frontDoor, clients []*client) error {
		rng := rand.New(rand.NewSource(int64(e.seed ^ 0xc105ed)))
		var log *latencyLog
		rep := func() error {
			log = closedLoop(fd, clients, rng)
			return nil
		}
		checked := 0
		after := func() error {
			res.Attempted += log.requests()
			res.Failed += log.failures
			checked += log.checked
			return check(log.failures == 0, "%d of %d requests failed (statuses %v)", log.failures, log.requests(), log.status)
		}
		t0 := nanos()
		if err := rep(); err != nil { // warm-up
			return err
		}
		if err := after(); err != nil {
			return err
		}
		res.Attempted, res.Failed, checked = 0, 0, 0 // the warm-up is not part of the measurement
		res.Phases["warmup"] = secondsSince(t0)
		if err := timedReps(res, e.seconds, rep, after); err != nil {
			return err
		}
		rotations := 0
		for _, c := range clients {
			rotations += c.rotations
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("closed loop over loopback: %d connections x %d lookups a repetition against a sealed %d-block epoch, default ServerConfig", loadConns, closedLoopLookups, serveBlocks),
			fmt.Sprintf("%.0f lookups/s; %d answers compared with Epoch.Lookup; %d connection rotations at the %d KiB read budget",
				float64(loadConns*closedLoopLookups)/res.Values["wall_s"].Median, checked, rotations, connBudget>>10))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func traceServe(e env) (*result, error) {
	res := newResult()
	err := withFrontDoor(res, e.seed, "serve.epoch_build_s", func(fd *frontDoor, clients []*client) error {
		return traceFrontDoor(e, res, fd, clients)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// traceFrontDoor is the traced run against an open front door: a short
// closed loop, the open loop, then the direct calls.
func traceFrontDoor(e env, res *result, fd *frontDoor, clients []*client) error {
	rng := rand.New(rand.NewSource(int64(e.seed ^ 0xc105ed)))

	// Closed loop, briefly: warm-up for the sockets and the qps reference.
	closedLoop(fd, clients, rng)
	t0 := nanos()
	cl := closedLoop(fd, clients, rng)
	res.set("serve.lookup_qps", float64(len(cl.ms[reqLookup]))/secondsSince(t0))

	// Open loop at the fixed rate for most of the budget.
	durationS := e.seconds * 0.6
	if durationS < 3 {
		durationS = 3
	}
	t0 = nanos()
	ol := openLoop(fd, clients, makeSchedule(e.seed, openLoopRate, durationS, serveBlocks))
	res.Phases["open_loop"] = secondsSince(t0)
	res.Attempted = cl.requests() + ol.requests()
	res.Failed = cl.failures + ol.failures
	if err := check(res.Failed == 0, "%d of %d requests failed (open-loop statuses %v)", res.Failed, res.Attempted, ol.status); err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		kind reqKind
		p    float64
	}{
		{"serve.lookup_p50_ms", reqLookup, 0.5}, {"serve.lookup_p99_ms", reqLookup, 0.99},
		{"serve.range_p50_ms", reqRange, 0.5}, {"serve.range_p99_ms", reqRange, 0.99},
		{"serve.summary_p50_ms", reqSummary, 0.5}, {"serve.summary_p90_ms", reqSummary, 0.9},
	} {
		sort.Float64s(ol.ms[m.kind])
		v, err := percentile(ol.ms[m.kind], m.p)
		if err != nil {
			return fmt.Errorf("%s: %w (lengthen --seconds)", m.name, err)
		}
		res.set(m.name, v)
	}
	sort.Float64s(ol.lateMS)
	late, err := percentile(ol.lateMS, 0.99)
	if err != nil {
		return err
	}
	res.set("serve.gen_lateness_p99_ms", late)
	twoXX := 0
	for code, n := range ol.status {
		if code >= 200 && code <= 299 {
			twoXX += n
		}
	}
	res.set("serve.status_2xx", float64(twoXX))
	res.set("serve.status_404", float64(ol.status[http.StatusNotFound]))
	res.set("serve.status_429", float64(ol.status[http.StatusTooManyRequests]))
	res.set("serve.status_503", float64(ol.status[http.StatusServiceUnavailable]))
	rotations, cuts := 0, 0
	for _, c := range clients {
		rotations += c.rotations
		cuts += c.budgetCloses
	}
	res.set("serve.conn_rotations", float64(rotations))
	res.set("serve.conn_budget_closes", float64(cuts))

	if err := directCalls(res, fd, rng); err != nil {
		return err
	}
	res.set("serve.socket_overhead_us", res.Values["serve.lookup_p50_ms"].Median*1e3-res.Values["serve.handler_lookup_ns"].Median/1e3)
	res.set("trace.drive_s", res.Phases["open_loop"])
	res.Notes = append(res.Notes,
		fmt.Sprintf("open loop over loopback: %.0f req/s for %.1fs on %d connections (%d lookups, %d listings, %d summaries), latency from due time",
			openLoopRate, durationS, loadConns, len(ol.ms[reqLookup]), len(ol.ms[reqRange]), len(ol.ms[reqSummary])),
		"client timing is always on for this workload, so trace.overhead_frac and trace.coverage_frac are not defined and read 0")
	return nil
}

// discardWriter is the in-process ResponseWriter of the handler timing.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// directCalls times the read path's public functions one by one, in
// process: the request parser, the epoch's three queries and the whole
// handler without a socket under it. Each figure is the median over batches
// of the mean cost per call.
func directCalls(res *result, fd *frontDoor, rng *rand.Rand) error {
	ep := fd.eng.Epoch()
	const batches, n = 7, 2000
	reqs := make([]schedReq, n)
	ids := make([]netsim.BlockID, n)
	paths := make([]string, n)
	httpReqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = schedReq{kind: reqLookup, block: rng.Intn(serveBlocks)}
		ids[i] = epochBlockID(reqs[i].block)
		paths[i] = reqs[i].path()
		r, err := http.NewRequest(http.MethodGet, "http://bench"+paths[i], nil)
		if err != nil {
			return err
		}
		httpReqs[i] = r
	}
	timeBatches := func(calls int, f func() error) (float64, error) {
		per := make([]float64, 0, batches)
		for b := 0; b < batches; b++ {
			t0 := nanos()
			if err := f(); err != nil {
				return 0, err
			}
			per = append(per, float64(nanos()-t0)/float64(calls))
		}
		return median(per), nil
	}

	ns, err := timeBatches(n, func() error {
		for _, p := range paths {
			if _, err := serve.ParseRequest(p, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("serve.parse_ns", ns)

	if ns, err = timeBatches(n, func() error {
		for _, id := range ids {
			if _, ok := ep.Lookup(id); !ok {
				return fmt.Errorf("Epoch.Lookup(%s): not found", id)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	res.set("serve.lookup_ns", ns)

	listing, err := serve.ParseRequest("/v1/blocks", "limit=50")
	if err != nil {
		return err
	}
	ctx := context.Background()
	const ranges = 200
	if ns, err = timeBatches(ranges, func() error {
		for i := 0; i < ranges; i++ {
			if _, _, err := ep.Range(ctx, listing.Lo, listing.Hi, listing.Limit, listing.OnlyDown); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	res.set("serve.range_us", ns/1e3)

	if ns, err = timeBatches(1, func() error {
		_, err := ep.Summary(ctx)
		return err
	}); err != nil {
		return err
	}
	res.set("serve.summary_ms", ns/1e6)

	w := &discardWriter{h: http.Header{}}
	m0 := mallocs()
	if ns, err = timeBatches(n, func() error {
		for _, r := range httpReqs {
			w.status = 0
			fd.srv.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				return fmt.Errorf("in-process handler answered %d", w.status)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	res.set("serve.handler_lookup_ns", ns)
	res.set("serve.handler_lookup_allocs", float64(mallocs()-m0)/float64(batches*n))
	return nil
}
