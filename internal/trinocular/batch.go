package trinocular

// The wavefront: ProbeRoundsBatch runs one round for many blocks at once.
// Each phase marshals probe k of every still-active round into one packet
// batch, crosses the netsim boundary in a single DeliverBatch call, and
// folds the responses back into the lanes' round machines; lanes whose
// round is over drop out, and the phases repeat until none is left.
//
// The wavefront reproduces ProbeRound's schedule exactly. Every probe's
// inputs — target host, sequence number, issue timestamp — are fixed by
// prepareProbe before any outcome of the round is known, and all probes of
// a round are issued at the round's virtual now until a retry shifts the
// clock (backoffUsed). A retry only ever follows a vantage-local send
// failure, and the first send failure in a round necessarily happens with
// zero backoff used — exactly where the sequential schedule stands — so a
// lane that sees one simply leaves the wavefront and finishes its round
// probe by probe (retrySendErrors, then sequentialRound), identically.
// Blocks never share netsim or fault-injector state across lanes
// (rate-limit windows, reply budgets, and tap counters are all per block;
// global counters are order-free sums), so interleaving lanes is
// unobservable. The round logic itself is the roundState machine ProbeRound
// runs — there is no second belief/stop/debounce implementation to drift.
//
// Buffer lifetimes: a phase's responses are views into the BatchContext's
// netsim buffer, valid until the next phase's DeliverBatch on it. A lane
// that retries mid-phase sends through its prober's own send scratch, never
// through that buffer, so the lanes after it still classify live views.

import (
	"fmt"
	"time"

	"sleepnet/internal/ipv4"
	"sleepnet/internal/netsim"
)

// pktSpan locates one marshalled probe inside the batch packet arena.
type pktSpan struct {
	start, end int32
}

// lane is one (prober, block) round riding the wavefront: its roundState
// plus the per-phase probe bookkeeping (target, packet index) needed to
// match the batch response back to the round. Lanes of one wavefront may
// belong to different probers (the pipeline runs one prober per block) as
// long as all of them sit on the same network.
type lane struct {
	p      *Prober
	rs     roundState
	out    int32 // index into the caller's ids/out slices
	host   byte
	target ipv4.Addr
	pkt    int32 // index into the phase's packet list; -1 when marshal failed
}

// BatchContext is the reusable state one probing worker threads through
// ProbeRoundsBatch: the lanes, the packet arena one wavefront phase
// marshals into, and the netsim-side batch buffer. The zero value is ready
// to use; everything grows to the largest batch seen and is reused. A
// BatchContext belongs to one worker at a time.
type BatchContext struct {
	// net is the netsim-side batch state (route cache, reply arena).
	net netsim.BatchBuffer

	pktArena []byte
	spans    []pktSpan
	pkts     [][]byte
	lanes    []lane
	active   []int32

	// stCache memoizes the i-th lane's (prober, id) → *blockState
	// resolution across rounds: callers pass the same id list every round,
	// and state pointers are stable for a prober's lifetime (AddBlock never
	// replaces an entry), so after the first round every lookup is a hit.
	stCache []stCacheEntry
}

// stCacheEntry is one memoized block-state resolution.
type stCacheEntry struct {
	p  *Prober
	id netsim.BlockID
	st *blockState
}

// stateFor resolves the i-th lane's block state through the memo.
func (bc *BatchContext) stateFor(i int, p *Prober, id netsim.BlockID) (*blockState, bool) {
	for len(bc.stCache) <= i {
		bc.stCache = append(bc.stCache, stCacheEntry{})
	}
	if e := &bc.stCache[i]; e.p == p && e.id == id {
		return e.st, true
	}
	st, ok := p.states[id]
	if ok {
		bc.stCache[i] = stCacheEntry{p: p, id: id, st: st}
	}
	return st, ok
}

// NewBatchContext returns an empty context; buffers grow on first use and
// are reused afterwards.
func NewBatchContext() *BatchContext { return &BatchContext{} }

// RetainedBytes reports the heap bytes the context retains across calls —
// the per-worker steady-state cost of probing, pinned by the monitor's
// memory-bound test.
func (bc *BatchContext) RetainedBytes() int {
	if bc == nil {
		return 0
	}
	n := bc.net.RetainedBytes()
	n += cap(bc.pktArena)
	n += cap(bc.spans) * 8
	n += cap(bc.pkts) * 24
	n += cap(bc.lanes) * 160 // lane: roundState (~128) + prober/target/host/indexes
	n += cap(bc.active) * 4
	n += cap(bc.stCache) * 24
	return n
}

// ProbeRoundsBatch probes one round for every block in ids at virtual time
// now, writing the i-th block's observation to out[i]. aOps[i] is the
// caller's operational availability estimate for ids[i], clamped exactly
// as ProbeRound clamps it. The observations, every block's prober memory,
// the network's counters, and any fault injector's state end up
// byte-identical to calling ProbeRound(ids[0]), ProbeRound(ids[1]), ... in
// order at the same now (see the comment at the top of this file for the
// argument); only the boundary-crossing cost changes. A call that returns
// an error has probed nothing and changed no prober memory.
//
//lint:hotpath: batched warm-round probing path, 0 allocs/op pinned by TestProbeRoundsBatchAllocFree
func (p *Prober) ProbeRoundsBatch(bc *BatchContext, ids []netsim.BlockID, aOps []float64, now time.Time, out []RoundObs) error {
	if len(aOps) != len(ids) || len(out) < len(ids) {
		return fmt.Errorf("trinocular: batch shape mismatch: %d ids, %d aOps, %d out", len(ids), len(aOps), len(out))
	}
	bc.growLanes(len(ids))
	for i, id := range ids {
		if err := bc.bindLane(i, p, id); err != nil {
			return err
		}
	}
	bc.beginLanes(aOps, now)
	runWavefront(bc, p.net, now, out)
	return nil
}

// ProbeRoundsBatchGroup is ProbeRoundsBatch for lanes owned by different
// probers: it probes one round for each (probers[i], ids[i]) pair at virtual
// time now, writing the i-th observation to out[i]. The measurement pipeline
// uses it — there every block has its own prober (its own walk seed), yet a
// group of blocks should still cross the netsim boundary as one wavefront.
// Every prober must sit on the same network. The per-lane equivalence
// contract is ProbeRoundsBatch's: prober and network state end up
// byte-identical to sequential ProbeRound calls in slice order (probers own
// disjoint block state, so the argument applies lane by lane).
//
//lint:hotpath: batched warm-round probing path, 0 allocs/op pinned by TestProbeRoundsBatchGroupAllocFree
func ProbeRoundsBatchGroup(bc *BatchContext, probers []*Prober, ids []netsim.BlockID, aOps []float64, now time.Time, out []RoundObs) error {
	if len(probers) != len(ids) || len(aOps) != len(ids) || len(out) < len(ids) {
		return fmt.Errorf("trinocular: batch group shape mismatch: %d probers, %d ids, %d aOps, %d out",
			len(probers), len(ids), len(aOps), len(out))
	}
	if len(ids) == 0 {
		return nil
	}
	bc.growLanes(len(ids))
	for i, id := range ids {
		if probers[i].net != probers[0].net {
			return fmt.Errorf("trinocular: batch group spans networks: the prober of %s sits on another one", id)
		}
		if err := bc.bindLane(i, probers[i], id); err != nil {
			return err
		}
	}
	bc.beginLanes(aOps, now)
	runWavefront(bc, probers[0].net, now, out)
	return nil
}

// bindLane binds lane i to its prober and its block's state. It reads
// prober memory and writes none: every lane is bound before beginLanes
// opens the first round, so an untracked id fails the call with no round
// consumed.
func (bc *BatchContext) bindLane(i int, p *Prober, id netsim.BlockID) error {
	st, ok := bc.stateFor(i, p, id)
	if !ok {
		return fmt.Errorf("trinocular: block %s not tracked", id)
	}
	ln := &bc.lanes[i]
	ln.p = p
	ln.out = int32(i)
	ln.rs.st = st
	return nil
}

// beginLanes opens a round on every bound lane and makes it active.
func (bc *BatchContext) beginLanes(aOps []float64, now time.Time) {
	for i := range bc.lanes {
		ln := &bc.lanes[i]
		//lint:allow hotalloc: once-guarded epoch capture; the closure is live only on each prober's very first round
		ln.p.epochOnce.Do(func() { ln.p.epoch = now })
		ln.p.beginRound(&ln.rs, ln.rs.st, now, aOps[i])
		bc.active = append(bc.active, int32(i))
	}
}

// growLanes resizes the lane slice to n and resets the active set. Lane
// fields are not cleared: bindLane assigns p/out, beginRound rewrites
// rs in full, and host/target/pkt are set every wavefront phase before
// they are read, so stale values are never observed. Indexed
// initialization (instead of appending a lane literal per block) avoids a
// ~176-byte struct copy per lane per round.
func (bc *BatchContext) growLanes(n int) {
	for cap(bc.lanes) < n {
		bc.lanes = append(bc.lanes[:cap(bc.lanes)], lane{})
	}
	bc.lanes = bc.lanes[:n]
	bc.active = bc.active[:0]
}

// runWavefront drives the prepared lanes in bc to completion: each
// iteration marshals the next probe of every active lane into one packet
// batch, crosses the boundary once, and folds the responses back into the
// lanes' round machines.
func runWavefront(bc *BatchContext, bn ProbeNetwork, now time.Time, out []RoundObs) {
	for len(bc.active) > 0 {
		// Marshal the next probe of every active lane into one packet batch.
		bc.pktArena = bc.pktArena[:0]
		bc.spans = bc.spans[:0]
		for _, li := range bc.active {
			ln := &bc.lanes[li]
			ln.host = ln.rs.prepareProbe()
			st := ln.rs.st
			ln.target = ipv4.Addr(st.id.Addr(ln.host).IP())
			start := int32(len(bc.pktArena))
			// The block's prefab template plus checksum folding — the same
			// bytes sendProbe puts on the wire.
			bc.pktArena = st.appendProbe(bc.pktArena, ln.host)
			ln.pkt = int32(len(bc.spans))
			bc.spans = append(bc.spans, pktSpan{start, int32(len(bc.pktArena))})
			ln.rs.sent++
		}
		// Packet views are built only after the arena stops growing.
		bc.pkts = bc.pkts[:0]
		for _, sp := range bc.spans {
			bc.pkts = append(bc.pkts, bc.pktArena[sp.start:sp.end])
		}
		var resps []netsim.Response
		if len(bc.pkts) > 0 {
			// resps and every Response.Data are views into bc.net's reply
			// arena, valid until the next DeliverBatch — i.e. through this
			// phase's classification below, never beyond it.
			resps = bn.DeliverBatch(&bc.net, bc.pkts, now)
		}

		keep := bc.active[:0]
		for _, li := range bc.active {
			ln := &bc.lanes[li]
			outcome := outcomeNegative
			if ln.pkt >= 0 {
				outcome = ln.p.classifyResponse(resps[ln.pkt], ln.target, ln.rs.st.seq)
			}
			if outcome == outcomeSendError {
				// A vantage-local failure shifts the lane's remaining probes
				// to backoff-adjusted times, so it leaves the wavefront and
				// finishes probe by probe, through its prober's own send
				// scratch (resps stays valid for the lanes still to come).
				// Equivalent by construction: the round's first send error
				// always happens with zero backoff used, exactly where the
				// sequential schedule stands.
				outcome = ln.p.retrySendErrors(&ln.rs, ln.host, now)
				ln.p.applyOutcome(&ln.rs, outcome)
				if !ln.rs.done {
					ln.p.sequentialRound(&ln.rs, now)
				}
			} else {
				ln.p.applyOutcome(&ln.rs, outcome)
			}
			if ln.rs.done {
				ln.p.finishRound(&ln.rs)
				out[ln.out] = ln.rs.obs
			} else {
				keep = append(keep, li)
			}
		}
		bc.active = keep
	}
}
