package monitor

import "testing"

// nopSink is an EpochSink that discards everything: it switches on the
// shard's classification without a consumer.
type nopSink struct{}

func (nopSink) BeginRun(RunInfo)                  {}
func (nopSink) ResyncShard(int, int, []PubBlock)  {}
func (nopSink) PublishRound(int, int, []RoundPub) {}
func (nopSink) ShardDown(int)                     {}

// TestClassifyBeatsTheWatchdog: a classification pass — a rebuild's, and a
// day end's — bumps the shard's heartbeat at least once every classifyBeat
// blocks, so a pass over a large shard never looks wedged to the watchdog;
// a round that completes no day classifies nothing.
func TestClassifyBeatsTheWatchdog(t *testing.T) {
	const blocks = 300
	cfg := baseConfig(testNet(blocks), 200)
	cfg.Shards = 1
	cfg.Sink = nopSink{}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := m.shards[0]
	if err := s.rebuild(); err != nil {
		t.Fatal(err)
	}
	beats := func(f func()) int64 {
		h := s.hb.Load()
		f()
		return s.hb.Load() - h
	}
	want := int64((blocks + classifyBeat - 1) / classifyBeat)
	if got := beats(s.publishResync); got < want {
		t.Errorf("a rebuild's classification bumped the heartbeat %d times over %d blocks, want at least %d", got, blocks, want)
	}
	// testEpoch is a midnight: 131 rounds of 660 s are the first to reach
	// the next one.
	const dayEnd = 131
	if !m.completesDay(dayEnd) || m.completesDay(dayEnd-1) || m.completesDay(dayEnd+1) {
		t.Fatalf("completesDay(%d, %d, %d) = %v, %v, %v; want only the middle one",
			dayEnd-1, dayEnd, dayEnd+1, m.completesDay(dayEnd-1), m.completesDay(dayEnd), m.completesDay(dayEnd+1))
	}
	for r := 0; r < dayEnd; r++ {
		s.probeRound(r)
	}
	if got := beats(func() { s.publishRound(dayEnd - 1) }); got < want {
		t.Errorf("a day end's classification bumped the heartbeat %d times over %d blocks, want at least %d", got, blocks, want)
	}
	if got := beats(func() { s.publishRound(dayEnd - 2) }); got != 0 {
		t.Errorf("a round that completes no day bumped the heartbeat %d times", got)
	}
}
