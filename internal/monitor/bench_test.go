package monitor

import (
	"io"
	"testing"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
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
	cfg.SegmentBytes = 1 << 40
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := m.shards[0]
	if err := s.rebuild(); err != nil {
		b.Fatal(err)
	}
	defer s.wal.abandon()
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
// snapshot rewrites every series in full, so its cost per block-round it
// covers is what grows a campaign's snapshot bill quadratically.
func BenchmarkSnapshotEncode(b *testing.B) {
	const blocks, rounds = 64, 262
	snap := shardSnapshot{Round: rounds, Blocks: make([]blockSnapshot, blocks)}
	for i := range snap.Blocks {
		bs := &snap.Blocks[i]
		bs.Prober.ID = netsim.BlockID(i + 1)
		bs.Short = make([]float64, rounds)
		for j := range bs.Short {
			bs.Short[j] = float64(j) / rounds
		}
		bs.Events = make([]core.OutageEvent, 4)
	}
	buf := encodeSnapshot(nil, &snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeSnapshot(buf, &snap)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(blocks*rounds), "ns/block-round")
	b.ReportMetric(float64(len(buf))/(blocks*rounds), "B/block-round")
}
