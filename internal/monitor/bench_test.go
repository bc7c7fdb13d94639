package monitor

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
)

// BenchmarkMonitorRoundBatch measures one warm monitor round over a
// 64-block shard — the steady-state unit of continuous monitoring: one
// batched wavefront, observed into the estimators.
func BenchmarkMonitorRoundBatch(b *testing.B) {
	cfg := baseConfig(testNet(64), 1<<20)
	cfg.Shards = 1
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := m.shards[0]
	if err := s.rebuild(); err != nil {
		b.Fatal(err)
	}
	// Warm up arenas and event slices so the loop measures the steady state
	// the alloc-free contract pins.
	r := 0
	for i := 0; i < 4; i++ {
		s.probeRound(r)
		r++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.probeRound(r)
		r++
	}
}

// BenchmarkCommitRound measures the durable half of a round on its own: one
// warm commit of a 64-block shard — encode the record into the shard's
// buffer, frame it, one write(2), no fsync (SyncWAL off), no rotation. The
// round is probed once, outside the timer; what is committed b.N times is
// its record. B/block-round is exact and is what TestWALBytesPerBlockRound
// pins.
func BenchmarkCommitRound(b *testing.B) {
	const blocks = 64
	cfg := baseConfig(testNet(blocks), 8)
	cfg.Shards = 1
	cfg.WALDir = b.TempDir()
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := m.shards[0]
	if err := s.rebuild(); err != nil {
		b.Fatal(err)
	}
	defer s.wal.abandon()
	s.wal.segBytes = 1 << 40 // no rotation: the seek below rewinds the file
	s.probeRound(0)
	if err := s.commitRound(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// Write over the same 7 MiB instead of growing the file by
			// b.N records: a long run measures the commit, not the disk
			// filling up.
			if _, err := s.wal.f.Seek(walHeaderSize, io.SeekStart); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.commitRound(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/blocks, "ns/block-round")
	b.ReportMetric(float64(len(s.recBuf))/blocks, "B/block-round")
}

// BenchmarkSnapshotEncode measures what a snapshot costs before it reaches
// the file system: the image of a 64-block shard two virtual days (262
// rounds) into its campaign, encoded over the shard's reused buffer. A
// snapshot is the prober and estimator state alone, so its bytes are
// stateSize a block at any round; B/block-round is per block-round the
// snapshot covers, and falls as the campaign ages.
func BenchmarkSnapshotEncode(b *testing.B) {
	const blocks, rounds = 64, 262
	snap := shardSnapshot{Round: rounds, Blocks: make([]blockSnapshot, blocks)}
	for i := range snap.Blocks {
		bs := &snap.Blocks[i]
		bs.Prober.ID = netsim.BlockID(i + 1)
		bs.Prober.Round = rounds
		bs.Est = core.EstimatorState{AlphaS: core.AlphaShort, AlphaL: core.AlphaLong, PS: 0.5, TS: 1, PL: 0.5, TL: 1, Rounds: rounds}
	}
	buf := encodeSnapshot(nil, &snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeSnapshot(buf, &snap)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/blocks, "ns/block")
	b.ReportMetric(float64(len(buf))/blocks, "B/block")
	b.ReportMetric(float64(len(buf))/(blocks*rounds), "B/block-round")
}

// BenchmarkDayEndClassify measures one shard's day-end pass with a sink
// attached: core.ClassifySeries on each of 2,500 blocks' committed series,
// for a campaign from midnight that has just completed 2, 7, 14 or 35 UTC
// days. The series are noisy daily waves, sixteen distinct ones dealt round
// robin. ns/block is what the pass adds to a round per block at that age.
func BenchmarkDayEndClassify(b *testing.B) {
	const blocks = 2500
	cfg := baseConfig(testNet(blocks), 1)
	cfg.Shards = 1
	cfg.Sink = nopSink{}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := m.shards[0]
	if err := s.reset(); err != nil {
		b.Fatal(err)
	}
	s.pub = make([]RoundPub, blocks)
	for _, days := range []int{2, 7, 14, 35} {
		// The first round count whose end reaches the days-th midnight.
		n := int((time.Duration(days)*24*time.Hour + timeseries.DefaultRound - 1) / timeseries.DefaultRound)
		if !m.completesDay(n) {
			b.Fatalf("%d rounds complete no day", n)
		}
		var waves [16][]float64
		for k := range waves {
			waves[k] = make([]float64, n)
			for r := range waves[k] {
				t := float64(r) * timeseries.DefaultRound.Hours() / 24
				waves[k][r] = 0.5 + 0.3*math.Cos(2*math.Pi*(t-float64(k)/16)) + 0.05*math.Sin(float64(r*(k+3)))
			}
		}
		for i, mon := range s.mons {
			mon.short = waves[i%len(waves)]
		}
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.classify()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/blocks, "ns/block")
		})
	}
}
