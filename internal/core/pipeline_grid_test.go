package core

import (
	"math"
	"testing"
	"time"

	"sleepnet/internal/metrics"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
)

// cleanReference measures block id as a recorded (round, value) stream —
// ProbeRound by round, one sample a kept observation and two a duplicated
// one, none for a failed or missing round — and cleans the stream with
// timeseries.Clean: the pipeline as it was before it wrote each estimate
// straight onto its round grid.
func cleanReference(pl *Pipeline, id netsim.BlockID) ([]float64, timeseries.CleanStats, error) {
	p := trinocular.New(pl.net, pl.cfg.Prober, pl.cfg.Seed^uint64(id))
	if err := p.AddBlock(id, pl.net.Block(id).EverActive()); err != nil {
		return nil, timeseries.CleanStats{}, err
	}
	est := NewEstimator(InitialA)
	var samples []timeseries.Sample
	for r := 0; r < pl.cfg.Rounds; r++ {
		obs, err := p.ProbeRound(pl.cfg.Start.Add(time.Duration(r)*timeseries.DefaultRound), est.Operational())
		if err != nil {
			return nil, timeseries.CleanStats{}, err
		}
		if obs.Failed() {
			continue
		}
		switch artifactFor(&pl.cfg, id, r) {
		case artifactMissing:
		case artifactDuplicate:
			est.Observe(obs.Positive, obs.Total)
			s := timeseries.Sample{Round: r, Value: est.ShortTerm()}
			samples = append(samples, s, s)
		default:
			est.Observe(obs.Positive, obs.Total)
			samples = append(samples, timeseries.Sample{Round: r, Value: est.ShortTerm()})
		}
	}
	return timeseries.Clean(samples, pl.cfg.Rounds)
}

// sameCleaning reports whether a record's cleaned series and stats are the
// reference's, bit for bit.
func sameCleaning(run *BlockRun, want []float64, wantSt timeseries.CleanStats) bool {
	if run.CleanStats != wantSt || len(run.Short.Values) != len(want) {
		return false
	}
	for r, v := range want {
		if math.Float64bits(run.Short.Values[r]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// TestGridMatchesCleanReference holds the pipeline's round grid to
// timeseries.Clean over the hostile fixture (wire faults, retries, restart
// downtime, missing and duplicated rounds): every measured block's Âs
// series is bit-equal to its recorded stream cleaned by Clean, and its
// CleanStats equal Clean's — for a record RunBlock hands over and for one
// RunAll hands fn in reused lane storage.
func TestGridMatchesCleanReference(t *testing.T) {
	plRef, ids := buildBatchPipeline(metrics.New())
	ids = ids[:5] // the measurable blocks
	want := make([][]float64, len(ids))
	wantSt := make([]timeseries.CleanStats, len(ids))
	var filled, dups int
	for i, id := range ids {
		var err error
		want[i], wantSt[i], err = cleanReference(plRef, id)
		if err != nil {
			t.Fatalf("reference of %s: %v", id, err)
		}
		filled += wantSt[i].Filled
		dups += wantSt[i].Duplicates
	}
	if filled == 0 || dups == 0 {
		t.Fatalf("fixture too tame: %d filled rounds, %d duplicates", filled, dups)
	}

	pl, _ := buildBatchPipeline(metrics.New())
	for i, id := range ids {
		run, err := pl.RunBlock(id)
		if err != nil {
			t.Fatalf("RunBlock(%s): %v", id, err)
		}
		if !sameCleaning(run, want[i], wantSt[i]) {
			t.Errorf("RunBlock(%s): cleaned series or stats %+v differ from Clean's %+v", id, run.CleanStats, wantSt[i])
		}
	}

	pl, _ = buildBatchPipeline(metrics.New())
	same := make([]bool, len(ids))
	pl.runAll(ids, 1, 2, func(i int, run *BlockRun, err error) {
		same[i] = err == nil && sameCleaning(run, want[i], wantSt[i])
	})
	for i, id := range ids {
		if !same[i] {
			t.Errorf("RunAll, block %s: cleaned series or stats differ from Clean's", id)
		}
	}
}

// TestBlockWithoutSampleKeepsCleanError pins the error of a block whose
// every round is lost: the grid reports what Clean reports for an empty
// sample list, through RunBlock and through RunAll's reused lanes alike.
func TestBlockWithoutSampleKeepsCleanError(t *testing.T) {
	const msg = "timeseries: Clean needs at least one sample"
	if _, _, err := timeseries.Clean(nil, 10); err == nil || err.Error() != msg {
		t.Fatalf("Clean(nil, 10) = %v, want %q", err, msg)
	}
	blk := mkStableBlock(netsim.MakeBlockID(27, 2, 1), 60, 1)
	pl, _ := pipelineOver(blk)
	pl.cfg.Rounds = batchRounds
	pl.cfg.MissingRate = 1
	want := "core: cleaning block " + blk.ID.String() + ": " + msg
	if _, err := pl.RunBlock(blk.ID); err == nil || err.Error() != want {
		t.Fatalf("RunBlock = %v, want %q", err, want)
	}
	pl.RunAll([]netsim.BlockID{blk.ID, blk.ID}, 1, func(i int, run *BlockRun, err error) {
		if run != nil || err == nil || err.Error() != want {
			t.Errorf("RunAll index %d = (%v, %v), want %q", i, run, err, want)
		}
	})
}
