package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
)

// downEngine drives an engine where even-numbered blocks go down in round 1.
func downEngine(blocks int) *Engine {
	e := NewEngine(EngineConfig{})
	e.BeginRun(monitor.RunInfo{
		Shards: 1, Rounds: 2, Blocks: blocks,
		Start: testEpoch, Period: time.Hour, Seed: 1,
	})
	pub := make([]monitor.PubBlock, blocks)
	for i := range pub {
		pub[i] = monitor.PubBlock{ID: netsim.MakeBlockID(10, byte(i/256), byte(i%256))}
	}
	e.ResyncShard(0, 0, pub)
	deltas := make([]monitor.RoundPub, blocks)
	for r := 0; r < 2; r++ {
		for i := range deltas {
			deltas[i] = monitor.RoundPub{Avail: 0.5, Long: 0.5}
			if r == 1 && i%2 == 0 {
				deltas[i].Event = monitor.PubEventDown
				deltas[i].Failed = true
			}
		}
		e.PublishRound(0, r, deltas)
	}
	return e
}

func TestEpochSummary(t *testing.T) {
	ep := downEngine(10).Epoch()
	s, err := ep.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks != 10 || s.Down != 5 || s.Epoch != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.FailedRounds != 5 {
		t.Fatalf("failed rounds = %d, want 5", s.FailedRounds)
	}
	if s.MeanAvail != 0.5 {
		t.Fatalf("mean avail = %v, want 0.5", s.MeanAvail)
	}
	if s.Unknown+s.NonDiurnal+s.Relaxed+s.Strict != 10 {
		t.Fatalf("class counts don't partition: %+v", s)
	}
}

func TestEpochRange(t *testing.T) {
	ep := downEngine(10).Epoch()
	ctx := context.Background()

	all, trunc, err := ep.Range(ctx, 0, ^netsim.BlockID(0), 100, false)
	if err != nil || trunc || len(all) != 10 {
		t.Fatalf("full range: n=%d trunc=%v err=%v", len(all), trunc, err)
	}

	// Half-open id window [10.0.2, 10.0.5) → blocks 2, 3, 4.
	lo, hi := netsim.MakeBlockID(10, 0, 2), netsim.MakeBlockID(10, 0, 5)
	win, _, err := ep.Range(ctx, lo, hi, 100, false)
	if err != nil || len(win) != 3 {
		t.Fatalf("window: n=%d err=%v", len(win), err)
	}
	if win[0].ID != "10.0.2/24" || win[2].ID != "10.0.4/24" {
		t.Fatalf("window ids: %s .. %s", win[0].ID, win[2].ID)
	}

	down, _, err := ep.Range(ctx, 0, ^netsim.BlockID(0), 100, true)
	if err != nil || len(down) != 5 {
		t.Fatalf("down filter: n=%d err=%v", len(down), err)
	}
	for _, b := range down {
		if !b.Down {
			t.Fatalf("down filter returned up block %s", b.ID)
		}
	}

	limited, trunc, err := ep.Range(ctx, 0, ^netsim.BlockID(0), 4, false)
	if err != nil || !trunc || len(limited) != 4 {
		t.Fatalf("limit: n=%d trunc=%v err=%v", len(limited), trunc, err)
	}
}

func TestEpochQueriesHonorDeadline(t *testing.T) {
	ep := downEngine(10).Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ep.Summary(ctx); err == nil {
		t.Fatal("summary ignored a dead context")
	}
	if _, _, err := ep.Range(ctx, 0, ^netsim.BlockID(0), 100, false); err == nil {
		t.Fatal("range ignored a dead context")
	}
}

// TestAppendStatusMatchesMarshal: the /v1/block answer is appended from the
// columns, and must be the bytes json.Marshal makes of the BlockStatus for
// every class, failed count, down flag and float value — including the
// values where encoding/json switches to exponent form, trims an exponent's
// zero, or keeps a sign. A value json.Marshal refuses (not finite) makes
// appendStatus refuse too.
func TestAppendStatusMatchesMarshal(t *testing.T) {
	ep := &Epoch{}
	set := newColSet([]netsim.BlockID{0})
	check := func(id netsim.BlockID, avail, long, phase float64, down bool, failed int32, class monitor.Class) {
		t.Helper()
		set.ids[0], set.avail[0], set.long[0], set.phase[0] = id, avail, long, phase
		set.down[0], set.failed[0], set.class[0] = down, failed, class
		got, ok := ep.appendStatus([]byte("prefix"), set, 0)
		want, err := json.Marshal(ep.statusAt(set, 0))
		switch {
		case ok != (err == nil):
			t.Fatalf("%v/%v/%v %v: appendStatus ok=%v, json.Marshal err=%v", avail, long, phase, class, ok, err)
		case !ok && string(got) != "prefix":
			t.Fatalf("a refused value appended %q", got[len("prefix"):])
		case ok && !bytes.Equal(got[len("prefix"):], want):
			t.Fatalf("appended %s\nmarshal  %s", got[len("prefix"):], want)
		}
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 5e-324, 1e21, -1e21, 0.1 + 0.2,
		1e-6, 9.999999999999999e20, 1, 0.5, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	classes := []monitor.Class{monitor.ClassUnknown, monitor.ClassNonDiurnal, monitor.ClassRelaxed, monitor.ClassStrict}
	id := netsim.MakeBlockID(200, 17, 3)
	for _, class := range classes {
		for _, failed := range []int32{0, 1, 7} {
			for _, down := range []bool{false, true} {
				for _, f := range edges {
					check(id, f, f, f, down, failed, class)
					check(id, 0.5, f, -f, down, failed, class)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(39))
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Float64()
		case 1:
			return math.Float64frombits(rng.Uint64()) // any bits, NaN and ±Inf included
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		default:
			return (rng.Float64()*2 - 1) * math.Pi
		}
	}
	for n := 0; n < 100000; n++ {
		check(netsim.BlockID(rng.Uint32())&^0xff, value(), value(), value(),
			rng.Intn(2) == 0, int32(rng.Intn(3)*rng.Intn(1000)), classes[rng.Intn(len(classes))])
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, class := range []monitor.Class{monitor.ClassUnknown, monitor.ClassStrict} {
			check(id, bad, 0.5, 0.1, false, 0, class)
			check(id, 0.5, bad, 0.1, false, 0, class)
		}
		check(id, 0.5, 0.5, bad, false, 0, monitor.ClassRelaxed)
	}
}

// segmentedPair feeds a len(sizes)-shard engine and a one-shard engine the
// same blocks and the same rounds: diurnal, flat and ramping blocks of every
// class, some going down and back up, some failing rounds.
func segmentedPair(sizes []int, rounds int) (multi, single *Engine, ids []netsim.BlockID) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	ids = make([]netsim.BlockID, total)
	pub := make([]monitor.PubBlock, total)
	for i := range ids {
		ids[i] = netsim.MakeBlockID(10, byte(i>>8), byte(i))
		pub[i] = monitor.PubBlock{ID: ids[i]}
	}
	begin := func(shards int) *Engine {
		e := NewEngine(EngineConfig{})
		e.BeginRun(monitor.RunInfo{
			Shards: shards, Rounds: rounds, Blocks: total,
			Start: testEpoch, Period: time.Hour, Seed: 1,
		})
		return e
	}
	multi, single = begin(len(sizes)), begin(1)
	// each calls fn once per shard of the multi engine with its range.
	each := func(fn func(shard, lo, hi int)) {
		lo := 0
		for s, n := range sizes {
			fn(s, lo, lo+n)
			lo += n
		}
	}
	each(func(s, lo, hi int) { multi.ResyncShard(s, 0, pub[lo:hi]) })
	single.ResyncShard(0, 0, pub)
	deltas := make([]monitor.RoundPub, total)
	for r := 0; r < rounds; r++ {
		for b := range deltas {
			var v float64
			switch b % 3 {
			case 0:
				v = 0.5 + 0.4*math.Cos(2*math.Pi*float64(r-b)/24)
			case 1:
				v = 0.7
			default:
				v = float64(r) / float64(rounds)
			}
			d := monitor.RoundPub{Avail: v, Long: v / 2, Failed: (b+r)%7 == 0, Class: monitor.Class(b % 4)}
			if d.Class.Diurnal() {
				d.Phase = float64(b-r) / 10
			}
			switch {
			case b%5 == 0 && r == rounds/3:
				d.Event = monitor.PubEventDown
			case b%10 == 0 && r == 2*rounds/3:
				d.Event = monitor.PubEventUp
			}
			deltas[b] = d
		}
		each(func(s, lo, hi int) { multi.PublishRound(s, r, deltas[lo:hi]) })
		single.PublishRound(0, r, deltas)
	}
	return multi, single, ids
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEpochSegmentsReadAsOne: an epoch of three shards' column sets answers
// every query with the same bytes as an epoch of one shard holding the same
// blocks — lookups at each shard's edges and middle, listings that straddle
// a shard boundary, and the rollup, whose mean keeps its bits because the
// segments are summed in global block order.
func TestEpochSegmentsReadAsOne(t *testing.T) {
	sizes := []int{5, 7, 4}
	multi, single, ids := segmentedPair(sizes, 30)
	m, s := multi.Epoch(), single.Epoch()
	if m == nil || s == nil || m.Rounds != 30 || s.Rounds != 30 {
		t.Fatalf("epochs: %+v %+v", m, s)
	}
	if len(m.segs) != len(sizes) || len(s.segs) != 1 {
		t.Fatalf("segments: %d and %d, want %d and 1", len(m.segs), len(s.segs), len(sizes))
	}
	ctx := context.Background()

	var probe []netsim.BlockID
	lo := 0
	for _, n := range sizes {
		probe = append(probe, ids[lo], ids[lo+n/2], ids[lo+n-1])
		lo += n
	}
	probe = append(probe, netsim.MakeBlockID(9, 0, 0), netsim.MakeBlockID(10, 0, 200), netsim.MakeBlockID(99, 0, 0))
	for _, id := range probe {
		mb, mok := m.Lookup(id)
		sb, sok := s.Lookup(id)
		if mok != sok || mustJSON(t, mb) != mustJSON(t, sb) {
			t.Errorf("Lookup(%v): %v %s vs one shard %v %s", id, mok, mustJSON(t, mb), sok, mustJSON(t, sb))
		}
		if !mok {
			continue
		}
		mseg, mi, _ := m.find(id)
		sseg, si, _ := s.find(id)
		ma, _ := m.appendStatus(nil, mseg, mi)
		sa, _ := s.appendStatus(nil, sseg, si)
		if !bytes.Equal(ma, sa) {
			t.Errorf("appendStatus(%v): %s vs one shard %s", id, ma, sa)
		}
	}

	top := ^netsim.BlockID(0)
	for _, q := range []struct {
		name     string
		lo, hi   netsim.BlockID
		limit    int
		onlyDown bool
	}{
		{"limit across the first boundary", ids[2], top, sizes[0] + 2, false},
		{"limit ending on a boundary", ids[0], top, sizes[0] + sizes[1], false},
		{"everything", 0, top, 100, false},
		{"down only", 0, top, 100, true},
		{"down only, limited across a boundary", ids[1], top, 2, true},
		{"a prefix inside the second shard", ids[sizes[0]+1], ids[sizes[0]+4], 100, false},
		{"a window across both boundaries", ids[sizes[0]-1], ids[sizes[0]+sizes[1]+1], 100, false},
		{"past the last block", ids[len(ids)-1] + 256, top, 100, false},
	} {
		mb, mt, merr := m.Range(ctx, q.lo, q.hi, q.limit, q.onlyDown)
		sb, st, serr := s.Range(ctx, q.lo, q.hi, q.limit, q.onlyDown)
		if merr != nil || serr != nil {
			t.Fatalf("%s: errors %v, %v", q.name, merr, serr)
		}
		if mt != st || mustJSON(t, mb) != mustJSON(t, sb) {
			t.Errorf("%s: truncated=%v %s\nvs one shard truncated=%v %s", q.name, mt, mustJSON(t, mb), st, mustJSON(t, sb))
		}
	}

	ms, merr := m.Summary(ctx)
	ss, serr := s.Summary(ctx)
	if merr != nil || serr != nil || mustJSON(t, ms) != mustJSON(t, ss) {
		t.Errorf("Summary: %s (%v)\nvs one shard %s (%v)", mustJSON(t, ms), merr, mustJSON(t, ss), serr)
	}
	if ms.Down == 0 || ms.FailedRounds == 0 || ms.Strict+ms.Relaxed == 0 || ms.NonDiurnal == 0 {
		t.Errorf("the fixture no longer covers down, failed and every class: %+v", ms)
	}
}

// expiringCtx is a context whose deadline passes once its Err has been
// polled polls times: a scan polling it aborts at a chosen stride.
type expiringCtx struct {
	context.Context
	polls int
}

func (c *expiringCtx) Err() error {
	if c.polls == 0 {
		return context.DeadlineExceeded
	}
	c.polls--
	return nil
}

// TestEpochDeadlineAcrossSegments: a scan polls its deadline every
// ctxStride blocks counted across segments, so a deadline that passes after
// the scan has crossed into a later shard's set still aborts it with the
// typed error and no partial result.
func TestEpochDeadlineAcrossSegments(t *testing.T) {
	const perShard = 6000 // the second and third polls land in the second and third sets
	if !(perShard <= ctxStride && ctxStride < 2*perShard && 2*ctxStride < 3*perShard) {
		t.Fatalf("perShard %d does not put polls 1 and 2 (at %d and %d) in the second and third sets",
			perShard, ctxStride, 2*ctxStride)
	}
	multi, _, _ := segmentedPair([]int{perShard, perShard, perShard}, 1)
	ep := multi.Epoch()
	if ep == nil || len(ep.segs) != 3 {
		t.Fatalf("epoch %+v", ep)
	}
	for polls := 1; polls <= 2; polls++ {
		if s, err := ep.Summary(&expiringCtx{context.Background(), polls}); !errors.Is(err, context.DeadlineExceeded) || s != (Summary{}) {
			t.Errorf("summary with the deadline at poll %d: %+v, %v", polls+1, s, err)
		}
		out, trunc, err := ep.Range(&expiringCtx{context.Background(), polls}, 0, ^netsim.BlockID(0), 3*perShard, false)
		if !errors.Is(err, context.DeadlineExceeded) || out != nil || trunc {
			t.Errorf("range with the deadline at poll %d: %d blocks, truncated=%v, %v", polls+1, len(out), trunc, err)
		}
	}
	if s, err := ep.Summary(&expiringCtx{context.Background(), 3}); err != nil || s.Blocks != 3*perShard {
		t.Errorf("a deadline after the last poll: %+v, %v", s, err)
	}
}
