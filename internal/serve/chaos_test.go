package serve

// chaos_test.go — the serving layer's acceptance gate (the serve-chaos CI
// job). A live monitor runs a full campaign while the HTTP front door
// absorbs a well-formed request flood, a slow-loris herd, connection churn,
// and a malformed-request barrage, all at once. The properties pinned:
//
//   1. Zero probe rounds lost: the monitor completes every round and its
//      study is byte-identical to the same seed run with no server and no
//      attackers. Serving reads never perturb measurement.
//   2. Shed requests get explicit 429/503 responses with Retry-After —
//      never hung connections, never partial JSON (the flood drains every
//      body through Content-Length framing and counts mismatches).
//   3. Lookup latency stays bounded (p99) while the summary class sheds.
//   4. Malformed requests never get a 2xx; slow-loris connections are cut.
//   5. The campaign spans at least three whole UTC days and a shard is
//      killed halfway: every column set the served engine installs carries
//      the class and phase bits of an unattacked, uninterrupted run's set
//      at the same round count, and the final epoch holds decided classes.

import (
	"bytes"
	"context"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// chaosNet builds the deterministic faulty world for the acceptance test.
func chaosNet(t *testing.T, blocks int) *netsim.Network {
	t.Helper()
	w, err := world.Generate(world.Config{Blocks: blocks, Seed: 0x5eed, OutagesPerBlockWeek: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Net.SetTap(faults.New(faults.Config{Seed: 0xfa17, LossRate: 0.02, CorruptRate: 0.01}, time.Time{}))
	return w.Net
}

// studyBytes runs a monitor to completion and returns its encoded study.
func studyBytes(t *testing.T, cfg monitor.Config) []byte {
	t.Helper()
	m, err := monitor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background())
	if err != nil || !res.Completed {
		t.Fatalf("monitor run: err=%v res=%+v", err, res)
	}
	st, err := res.Study()
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestServeChaosAcceptance(t *testing.T) {
	blocks, rounds := 80, 2500
	if testing.Short() {
		blocks, rounds = 40, 600
	}
	mkCfg := func(sink monitor.EpochSink) monitor.Config {
		cfg := baseConfig(chaosNet(t, blocks), rounds)
		cfg.Sink = sink
		return cfg
	}

	// Real block ids for the lookup flood (plus one guaranteed miss).
	ids := chaosNet(t, blocks).BlockIDs()
	lookupPaths := []string{"/v1/block/77.77.77"}
	for _, id := range ids[:3] {
		b := id.String() // "a.b.c/24"
		lookupPaths = append(lookupPaths, "/v1/block/"+b[:len(b)-3])
	}

	// Reference: same seed, no server, no attackers, no kill; and the same
	// with an engine attached, whose sets the served run must reproduce.
	ref := studyBytes(t, mkCfg(nil))
	refLog := newSetLog(NewEngine(EngineConfig{}))
	if !bytes.Equal(studyBytes(t, mkCfg(refLog)), ref) {
		t.Fatal("attaching an engine changed the study")
	}

	reg := metrics.New()
	eng := NewEngine(EngineConfig{Metrics: reg})
	served := newSetLog(eng)
	srv := NewServer(eng, ServerConfig{Metrics: reg})
	// A deliberately tiny summary class so the flood is guaranteed to shed
	// while lookups keep flowing.
	srv.summary = newBucket(classLimits{RPS: 50, Burst: 10, Queue: 4, MaxWait: 5 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srvCtx, srvCancel := context.WithCancel(context.Background())
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(srvCtx, ln) }()

	attackCtx, stopAttacks := context.WithCancel(context.Background())
	var (
		wg         sync.WaitGroup
		mixed      faults.AttackStats
		lookups    faults.AttackStats
		garbage    faults.AttackStats
		lorisCut   int64
		latMu      sync.Mutex
		lookupLats []time.Duration
	)
	wg.Add(5)
	go func() {
		defer wg.Done()
		mixed = faults.Flood(attackCtx, faults.FloodConfig{Addr: addr, Workers: 4, Seed: 0xf100d})
	}()
	go func() {
		defer wg.Done()
		lookups = faults.Flood(attackCtx, faults.FloodConfig{
			Addr: addr, Workers: 4, Seed: 0xb10c,
			Paths: lookupPaths,
			OnLatency: func(d time.Duration) {
				latMu.Lock()
				lookupLats = append(lookupLats, d)
				latMu.Unlock()
			},
		})
	}()
	go func() {
		defer wg.Done()
		lorisCut = faults.SlowLoris(attackCtx, addr, 16, 20*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		faults.ConnChurn(attackCtx, addr, 2)
	}()
	go func() {
		defer wg.Done()
		garbage = faults.Malformed(attackCtx, addr, 2, 0xbad)
	}()

	// Let the attack reach steady state before measurement begins, so the
	// monitor's whole campaign runs under fire.
	attackStart := time.Now()
	time.Sleep(300 * time.Millisecond)

	cfg := mkCfg(served)
	cfg.Chaos = &faults.ChaosPlan{Kills: []faults.ShardRound{{Shard: 1, Round: rounds / 2}}}
	got := studyBytes(t, cfg)

	// Keep the pressure on a beat longer, and past the header timeout that
	// cuts the slow-loris connections, then drain the attackers.
	time.Sleep(max(100*time.Millisecond, readHeaderTimeout+200*time.Millisecond-time.Since(attackStart)))
	stopAttacks()
	wg.Wait()
	srvCancel()
	if err := <-srvDone; err != nil {
		t.Fatalf("server exited with %v", err)
	}

	// 1. Zero probe rounds lost, measurement unperturbed.
	if !bytes.Equal(got, ref) {
		t.Fatal("study under client chaos diverges from the unattacked same-seed run")
	}
	if ep := eng.Epoch(); ep == nil || ep.Rounds != rounds {
		t.Fatalf("engine epoch = %+v, want all %d rounds sealed", ep, rounds)
	}

	// 5. The kill's resync and every publish serve the unattacked run's
	// classes and phases.
	if len(served.mismatch) > 0 {
		t.Fatalf("a resync installed other bits than the publish at the same count: %v", served.mismatch)
	}
	for k, v := range served.sets {
		if want, ok := refLog.sets[k]; !ok || !sameVerdicts(v, want) {
			t.Fatalf("shard %d at %d rounds: classes and phases differ from the unattacked run's", k.shard, k.rounds)
		}
	}
	if s, err := eng.Epoch().Summary(context.Background()); err != nil || s.Unknown == s.Blocks {
		t.Fatalf("final epoch holds no decided class: %+v (%v)", s, err)
	}

	// 2. Sheds were explicit and well-formed. Flood counts a Content-Length
	// mismatch or truncated body as Dropped; demand successes dominate and
	// sheds happened.
	if lookups.OK == 0 {
		t.Fatal("no lookup ever succeeded under chaos")
	}
	if mixed.OK == 0 {
		t.Fatal("no mixed query ever succeeded under chaos")
	}
	snap := reg.Snapshot()
	if got, want := snap.Counter("serve.resyncs"), int64(cfg.Shards+1); got != want {
		t.Fatalf("resyncs = %d, want %d: one a shard and one after the kill", got, want)
	}
	shed := snap.Counter("serve.http_shed_rate") + snap.Counter("serve.http_shed_overload")
	if shed == 0 && mixed.Shed == 0 {
		t.Fatal("overload never shed: the summary class limits did not bite")
	}

	// 3. p99 lookup latency bounded while shedding. The bound is generous —
	// CI machines under the race detector are slow — but categorical: a
	// hung-connection bug would blow it by orders of magnitude.
	latMu.Lock()
	lats := append([]time.Duration(nil), lookupLats...)
	latMu.Unlock()
	if len(lats) < 50 {
		t.Fatalf("only %d lookup latencies collected", len(lats))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p99 := lats[len(lats)*99/100]; p99 > time.Second {
		t.Fatalf("lookup p99 = %v under chaos, want <= 1s", p99)
	}

	// 4. The hostile clients got nothing but refusals.
	if garbage.OK != 0 {
		t.Fatalf("%d malformed requests got 2xx", garbage.OK)
	}
	if garbage.Requests > 0 && garbage.Rejected == 0 && garbage.Dropped == 0 {
		t.Fatal("malformed requests neither rejected nor dropped")
	}
	if lorisCut == 0 {
		t.Fatal("no slow-loris connection was ever cut")
	}
}
