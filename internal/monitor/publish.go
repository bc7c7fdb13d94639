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
// A nil sink costs one comparison per round. Sink calls run on the shard
// goroutine: implementations must be fast (no I/O, no unbounded blocking)
// or they stall probing — the serve engine copies into writer-owned buffers
// under a mutex no reader ever takes. A panic inside a sink is absorbed by
// the shard's supervisor like any other crash.

import (
	"time"

	"sleepnet/internal/netsim"
)

// Published outage-transition codes (RoundPub.Event).
const (
	// PubEventDown: the block transitioned into an outage this round.
	PubEventDown = eventDown
	// PubEventUp: the block recovered from an outage this round.
	PubEventUp = eventUp
)

// RunInfo describes the campaign to a sink before any shard starts.
type RunInfo struct {
	Shards int
	Rounds int
	Blocks int
	Start  time.Time
	Period time.Duration
	Seed   uint64
}

// PubBlock is one block's full committed state — the resync form. Short
// aliases shard-owned memory and is valid only for the duration of the
// ResyncShard call; sinks must consume it before returning.
type PubBlock struct {
	ID netsim.BlockID
	// Short is the committed Âs series so far, one value per round: every
	// block of a ResyncShard call carries exactly nextRound values. A sink
	// may reject the whole resync otherwise (serve.Engine does).
	Short []float64
	// Long is the estimator's long-term availability.
	Long float64
	// Down reports whether the block is currently inside an outage.
	Down bool
	// Failed counts rounds with no usable observation.
	Failed int
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

// publishResync re-publishes the shard's full committed state after a
// rebuild. Cold path: allocation here is fine.
func (s *shard) publishResync() {
	sink := s.m.cfg.Sink
	if sink == nil {
		return
	}
	blocks := make([]PubBlock, 0, len(s.mons))
	for _, mon := range s.mons {
		blocks = append(blocks, PubBlock{
			ID:     mon.id,
			Short:  mon.short,
			Long:   mon.est.LongTerm(),
			Down:   mon.down(),
			Failed: mon.failed,
		})
	}
	sink.ResyncShard(s.idx, s.round, blocks)
}

// publishRound hands the just-committed round r to the sink. Hot path: the
// staging slice is reused across rounds.
func (s *shard) publishRound(r int) {
	sink := s.m.cfg.Sink
	if sink == nil {
		return
	}
	s.pub = s.pub[:0]
	if cap(s.pub) < len(s.mons) {
		s.pub = make([]RoundPub, 0, len(s.mons))
	}
	for _, mon := range s.mons {
		s.pub = append(s.pub, RoundPub{
			Avail:  mon.short[len(mon.short)-1],
			Long:   mon.est.LongTerm(),
			Event:  uint8(mon.lastEvent),
			Failed: mon.lastFailed,
		})
	}
	sink.PublishRound(s.idx, r, s.pub)
}
