package monitor

// publish.go — the epoch-publication hook between the monitor and a live
// query layer (internal/serve). After every committed round a shard hands
// its post-round block state to the configured EpochSink; after every
// rebuild (first attempt, crash recovery, resume over an old WAL) it first
// re-publishes its full committed state so the sink never has to guess what
// a restarted shard already covered.
//
// The contract is deliberately one-way and non-durable: the sink is a
// read-side consumer, the WAL stays the only source of truth. Publication
// happens strictly after the round commits, so anything a sink ever saw is
// state a recovery would reconstruct — a sink fed by a crash-looping shard
// converges to exactly the state a sink fed by an uninterrupted run sees,
// because resync is a pure function of the committed series.
//
// The diurnal class a sink serves is the study's: with a sink attached, a
// shard runs core.ClassifySeries on each block's committed series at every
// round that completes a UTC day, and at every rebuild. ClassifySeries trims
// to midnight UTC, so its answer changes only at a day end; between day ends
// the last verdict stands. A rebuild classifies the same committed series,
// so a resync carries the verdict an uninterrupted run holds at that round.
//
// A nil sink costs one comparison per round. Sink calls run on the shard
// goroutine: implementations must be fast (no I/O, no unbounded blocking)
// or they stall probing — the serve engine copies a round into a column
// set of the shard's own, a few bytes a block, under a mutex no reader ever
// takes. A panic inside a
// sink is absorbed by the shard's supervisor like any other crash.

import (
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/par"
	"sleepnet/internal/timeseries"
)

// Published outage-transition codes (RoundPub.Event).
const (
	// PubEventDown: the block transitioned into an outage this round.
	PubEventDown = eventDown
	// PubEventUp: the block recovered from an outage this round.
	PubEventUp = eventUp
)

// Class is a block's diurnal class as published. The zero value is
// ClassUnknown, so a zero RoundPub or PubBlock is an undecided block.
type Class uint8

const (
	// ClassUnknown: core.ClassifySeries refuses the committed series —
	// fewer than two whole UTC days.
	ClassUnknown Class = iota
	// ClassNonDiurnal: core.NonDiurnal.
	ClassNonDiurnal
	// ClassRelaxed: core.RelaxedDiurnal.
	ClassRelaxed
	// ClassStrict: core.StrictDiurnal.
	ClassStrict
)

// String renders the class for reports and JSON.
func (c Class) String() string {
	switch c {
	case ClassStrict:
		return "strict"
	case ClassRelaxed:
		return "relaxed"
	case ClassNonDiurnal:
		return "non-diurnal"
	default:
		return "unknown"
	}
}

// Diurnal reports whether c is strict or relaxed: the classes that carry a
// phase.
func (c Class) Diurnal() bool { return c == ClassStrict || c == ClassRelaxed }

// classOf is the study's detector, core.ClassifySeries, on a block's
// committed series of a campaign starting at start. A series it refuses is
// ClassUnknown; the phase, anchored at midnight UTC, is 0 outside the
// diurnal classes.
func classOf(start time.Time, short []float64) (Class, float64) {
	res, _, err := core.ClassifySeries(timeseries.New(start, timeseries.DefaultRound, short))
	switch {
	case err != nil:
		return ClassUnknown, 0
	case res.Class == core.StrictDiurnal:
		return ClassStrict, res.Phase
	case res.Class == core.RelaxedDiurnal:
		return ClassRelaxed, res.Phase
	}
	return ClassNonDiurnal, 0
}

// completesDay reports whether n committed rounds end at or past a UTC
// midnight that n-1 did not reach: the round counts at which the
// midnight-trimmed series, and so the class, can change.
func (m *Monitor) completesDay(n int) bool {
	end := m.cfg.Start.Add(time.Duration(n) * timeseries.DefaultRound)
	return !end.Truncate(24 * time.Hour).Equal(end.Add(-timeseries.DefaultRound).Truncate(24 * time.Hour))
}

// classifyBeat is a classification pass's chunk: the blocks one goroutine
// takes at a time, and so how many blocks the pass covers between
// heartbeats. A 14-day series takes a few hundred µs a block, so a pass over
// a large shard would otherwise outlast the watchdog's strikes.
const classifyBeat = 64

// RunInfo describes the campaign to a sink before any shard starts.
type RunInfo struct {
	Shards int
	Rounds int
	Blocks int
	Start  time.Time
	Period time.Duration
	Seed   uint64
}

// PubBlock is one block's full committed state — the resync form.
type PubBlock struct {
	ID netsim.BlockID
	// Short is the last committed Âs value (0 before the first round).
	Short float64
	// Long is the estimator's long-term availability.
	Long float64
	// Down reports whether the block is currently inside an outage.
	Down bool
	// Failed counts rounds with no usable observation.
	Failed int
	// Class and Phase are core.ClassifySeries on the committed series.
	Class Class
	Phase float64
}

// RoundPub is one block's post-round delta, in the shard's block order.
type RoundPub struct {
	// Avail is the Âs value appended to the series this round.
	Avail float64
	// Long is the estimator's long-term availability after the round.
	Long float64
	// Event is PubEventNone/PubEventDown/PubEventUp.
	Event uint8
	// Failed marks a round that produced no usable observation.
	Failed bool
	// Class and Phase are the verdict of the last day end (see publish.go's
	// header): core.ClassifySeries on the committed series.
	Class Class
	Phase float64
}

// EpochSink receives the monitor's committed per-block state, round by
// round. Implementations must be safe for concurrent use: shards publish
// from their own goroutines.
type EpochSink interface {
	// BeginRun announces the campaign shape before any shard runs.
	BeginRun(info RunInfo)
	// ResyncShard replaces everything known about the shard with its full
	// committed state; nextRound is the number of committed rounds. Called
	// at the start of every shard attempt (including the first).
	ResyncShard(shard, nextRound int, blocks []PubBlock)
	// PublishRound applies one committed round's deltas, ordered exactly as
	// the shard's blocks in the global sorted order.
	PublishRound(shard, round int, deltas []RoundPub)
	// ShardDown reports that the shard crash-looped into quarantine and
	// will publish no further rounds this run.
	ShardDown(shard int)
}

// down reports whether the block is currently inside an outage: the last
// committed transition was a down.
func (b *blockMon) down() bool {
	if len(b.events) == 0 {
		return false
	}
	return b.events[len(b.events)-1].Down
}

// classify sets every block's verdict in s.pub from its committed series,
// classifyBeat blocks a chunk on up to GOMAXPROCS goroutines, bumping the
// heartbeat once a chunk. A verdict depends on its block's series alone, so
// the verdicts are the serial pass's; spreading them shortens the stall a
// day end puts on the shard's probing.
func (s *shard) classify() {
	par.For(len(s.mons), classifyBeat, 0, func(lo, hi int) {
		s.hb.Add(1)
		for i := lo; i < hi; i++ {
			p := &s.pub[i]
			p.Class, p.Phase = classOf(s.m.cfg.Start, s.mons[i].short)
		}
	})
}

// publishResync re-publishes the shard's full committed state after a
// rebuild, classifying every block's series. Cold path: allocation here is
// fine.
func (s *shard) publishResync() {
	sink := s.m.cfg.Sink
	if sink == nil {
		return
	}
	s.pub = make([]RoundPub, len(s.mons))
	s.classify()
	blocks := make([]PubBlock, len(s.mons))
	for i, mon := range s.mons {
		blocks[i] = PubBlock{
			ID:     mon.id,
			Short:  lastOr(mon.short, 0),
			Long:   mon.est.LongTerm(),
			Down:   mon.down(),
			Failed: mon.failed,
			Class:  s.pub[i].Class,
			Phase:  s.pub[i].Phase,
		}
	}
	sink.ResyncShard(s.idx, s.round, blocks)
}

// publishRound hands the just-committed round r to the sink, reclassifying
// every block when the round completes a UTC day. The staging slice, which
// holds the standing verdicts, is reused across rounds.
func (s *shard) publishRound(r int) {
	sink := s.m.cfg.Sink
	if sink == nil {
		return
	}
	if s.m.completesDay(r + 1) {
		s.classify()
	}
	for i, mon := range s.mons {
		p := &s.pub[i]
		p.Avail, p.Long = mon.last.Short, mon.est.LongTerm()
		p.Event, p.Failed = uint8(mon.last.Event), mon.last.Failed
	}
	sink.PublishRound(s.idx, r, s.pub)
}
