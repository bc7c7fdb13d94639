package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// batchRounds keeps the group-equivalence fixtures fast while leaving, after
// the trim to midnight UTC, the two whole days classification needs, and
// crossing several restart windows.
const batchRounds = 3*86400/660 + 30

// buildBatchPipeline assembles a fresh hostile fixture: a mixed population
// (diurnal, stable, flaky, outage-prone, reply-rate-limited, sparse), a wire
// fault injector, collection artifacts, retries, and restart downtime. Each
// call builds an independent world so the two probe paths share no state.
func buildBatchPipeline() (*Pipeline, []netsim.BlockID) {
	net := netsim.NewNetwork(77)

	diurnal := mkDiurnalBlock(netsim.MakeBlockID(27, 1, 1), 80)
	stable := mkStableBlock(netsim.MakeBlockID(27, 1, 2), 60, 1)
	flaky := mkStableBlock(netsim.MakeBlockID(27, 1, 3), 90, 0.5)
	outage := mkStableBlock(netsim.MakeBlockID(27, 1, 4), 70, 1)
	outage.GatewayUnreachableProb = 0.4
	outage.Outages = []netsim.Interval{
		{Start: start.Add(5 * time.Hour), End: start.Add(9 * time.Hour)},
	}
	limited := mkStableBlock(netsim.MakeBlockID(27, 1, 5), 50, 0.7)
	limited.ReplyRateLimit = 2
	sparse := mkStableBlock(netsim.MakeBlockID(27, 1, 6), 4, 1)

	ids := make([]netsim.BlockID, 0, 7)
	for _, b := range []*netsim.Block{diurnal, stable, flaky, outage, limited, sparse} {
		net.AddBlock(b)
		ids = append(ids, b.ID)
	}
	// One id that is not in the network at all: its error slot must come
	// back filled while the rest of the group measures normally.
	ids = append(ids, netsim.MakeBlockID(99, 99, 99))

	net.SetTap(faults.New(faults.Config{
		Seed:              31,
		LossRate:          0.1,
		CorruptRate:       0.1,
		RateLimitPerRound: 8,
		BlackoutEvery:     3 * time.Hour,
		BlackoutFor:       2 * time.Minute,
		Epoch:             start,
	}))

	cfg := PipelineConfig{
		Start:         start,
		Rounds:        batchRounds,
		Seed:          5,
		MissingRate:   0.03,
		DuplicateRate: 0.02,
		Prober: trinocular.Config{
			RestartInterval:     6 * time.Hour,
			RestartDowntimeFrac: 0.5,
			Retry:               trinocular.RetryConfig{MaxAttempts: 3, BaseBackoff: time.Second},
		},
	}
	return NewPipeline(net, cfg), ids
}

// TestRunBlocksMatchesRunBlock is the pipeline-level equivalence gate: for
// every group size, the lockstep group runner must return, block for block,
// exactly what measuring each block alone (RunBlock, a group of one) returns
// — records, series, classifications, and error slots alike — under wire
// faults, collection artifacts, retries, and restart downtime.
func TestRunBlocksMatchesRunBlock(t *testing.T) {
	plRef, ids := buildBatchPipeline()
	refRuns := make([]*BlockRun, len(ids))
	refErrs := make([]error, len(ids))
	for i, id := range ids {
		refRuns[i], refErrs[i] = plRef.RunBlock(id)
	}
	if !errors.Is(refErrs[5], trinocular.ErrTooSparse) {
		t.Fatalf("fixture block 5 should be sparse, got %v", refErrs[5])
	}
	if refErrs[6] == nil {
		t.Fatal("fixture block 6 should be unknown to the network")
	}
	for i := 0; i < 5; i++ {
		if refErrs[i] != nil {
			t.Fatalf("fixture block %d should measure, got %v: no record to compare", i, refErrs[i])
		}
	}

	for _, group := range []int{3, len(ids)} {
		pl, _ := buildBatchPipeline()
		runs := make([]*BlockRun, 0, len(ids))
		errs := make([]error, 0, len(ids))
		for g := 0; g < len(ids); g += group {
			e := g + group
			if e > len(ids) {
				e = len(ids)
			}
			rs, es := pl.RunBlocks(ids[g:e])
			runs = append(runs, rs...)
			errs = append(errs, es...)
		}
		for i, id := range ids {
			switch {
			case (refErrs[i] == nil) != (errs[i] == nil):
				t.Fatalf("group %d block %s: error mismatch: %v vs %v", group, id, refErrs[i], errs[i])
			case refErrs[i] != nil:
				if errors.Is(refErrs[i], trinocular.ErrTooSparse) != errors.Is(errs[i], trinocular.ErrTooSparse) {
					t.Fatalf("group %d block %s: sparse classification diverged", group, id)
				}
			case !reflect.DeepEqual(refRuns[i], runs[i]):
				t.Fatalf("group %d block %s: the grouped run diverged from the block measured alone", group, id)
			}
		}
	}
}

// laneRetryTap is trinocular's lane-retry fixture at pipeline level: on top
// of the wrapped fault injector, every send to blk made in the first second
// of every fourth round fails at the vantage point. The retry, backed off by
// seconds, gets through — so in a lockstep group that lane retries in the
// middle of a phase while its neighbours hold the phase's replies.
type laneRetryTap struct {
	netsim.Tap
	blk netsim.BlockID
}

func (l laneRetryTap) OutboundBatch(dsts []netsim.Addr, now time.Time, times []time.Time, verdicts []netsim.TapVerdict) {
	l.Tap.OutboundBatch(dsts, now, times, verdicts)
	for i, dst := range dsts {
		if dst.Block == l.blk && now.Sub(start)%(4*timeseries.DefaultRound) < time.Second {
			verdicts[i] = netsim.TapSendError
		}
	}
}

// sameOutcome reports whether two measurements of one block agree: the same
// record, or the same kind of refusal.
func sameOutcome(a *BlockRun, aErr error, b *BlockRun, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return reflect.DeepEqual(a, b)
}

// TestRunAll is the gate on the one batch driver: over a generated world
// behind a faulty wire (loss, corruption, rate limiting, a lane that
// retries mid-phase), for every worker count and group size — the derived
// one included — fn sees every index exactly once, with exactly what
// measuring that block alone returns. An id the network does not know and
// a sparse block report through err and leave their group's other lanes
// undisturbed.
func TestRunAll(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 40, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]netsim.BlockID, 0, len(w.Blocks)+1)
	for _, b := range w.Blocks {
		ids = append(ids, b.ID)
	}
	// Two ids that cannot be measured, each inside a group of every size:
	// one the network does not know, one below the prober's policy floor.
	const unknownAt, sparseAt = 3, 10
	sparse := mkStableBlock(netsim.MakeBlockID(99, 99, 98), 4, 1)
	w.Net.AddBlock(sparse)
	ids = append(ids[:unknownAt+1], ids[unknownAt:]...)
	ids[unknownAt] = netsim.MakeBlockID(99, 99, 99)
	ids = append(ids[:sparseAt+1], ids[sparseAt:]...)
	ids[sparseAt] = sparse.ID

	pl := NewPipeline(w.Net, PipelineConfig{
		Start:  start,
		Rounds: batchRounds,
		Seed:   41,
		Prober: trinocular.Config{Retry: trinocular.RetryConfig{MaxAttempts: 2}},
	})
	// Every run gets a fresh tap: the injector keeps per-block state.
	arm := func() {
		w.Net.SetTap(laneRetryTap{
			Tap: faults.New(faults.Config{
				Seed:              41 ^ 0xfa17,
				LossRate:          0.02,
				CorruptRate:       0.01,
				RateLimitPerRound: 12,
				Epoch:             start,
			}),
			blk: ids[0],
		})
	}

	arm()
	want := make([]*BlockRun, len(ids))
	wantErr := make([]error, len(ids))
	for i, id := range ids {
		want[i], wantErr[i] = pl.RunBlock(id)
		if (wantErr[i] != nil) != (i == unknownAt || i == sparseAt) {
			t.Fatalf("fixture block %d (%s): unexpected outcome %v", i, id, wantErr[i])
		}
	}
	if !errors.Is(wantErr[sparseAt], trinocular.ErrTooSparse) {
		t.Fatalf("fixture block %d should be sparse, got %v", sparseAt, wantErr[sparseAt])
	}
	if want[0].Retries == 0 {
		t.Fatal("fixture too tame: the lane-retry block never retried")
	}

	for _, workers := range []int{1, 2, 5} {
		for _, group := range []int{1, 7, 64, 0} {
			arm()
			calls := make([]atomic.Int32, len(ids))
			got := make([]*BlockRun, len(ids))
			gotErr := make([]error, len(ids))
			fn := func(i int, run *BlockRun, err error) {
				calls[i].Add(1)
				got[i], gotErr[i] = run, err
			}
			if group == 0 {
				pl.RunAll(ids, workers, fn)
			} else {
				pl.runAll(ids, workers, group, fn)
			}
			for i, id := range ids {
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("workers %d group %d: fn called %d times for index %d", workers, group, n, i)
				}
				if !sameOutcome(want[i], wantErr[i], got[i], gotErr[i]) {
					t.Fatalf("workers %d group %d block %s: diverged from the block measured alone (errors %v vs %v)",
						workers, group, id, wantErr[i], gotErr[i])
				}
			}
		}
	}

	pl.RunAll(nil, 2, func(i int, _ *BlockRun, _ error) {
		t.Errorf("fn called for index %d of an empty campaign", i)
	})
}

// TestGroupSizeFor pins the derived group size and the property it exists
// for: there are always at least as many groups as workers (or blocks), so
// no worker is left idle. A fixed 64 breaks it at (250, 8): four groups for
// eight workers.
func TestGroupSizeFor(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{250, 2, 7},
		{250, 8, 1},
		{2500, 2, 64},
		{0, 4, 1},
	} {
		if got := groupSizeFor(tc.n, tc.workers); got != tc.want {
			t.Errorf("groupSizeFor(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
	for n := 1; n <= 5000; n++ {
		for workers := 1; workers <= 32; workers++ {
			g := groupSizeFor(n, workers)
			if g < 1 || g > maxGroupSize {
				t.Fatalf("groupSizeFor(%d, %d) = %d, outside [1, %d]", n, workers, g, maxGroupSize)
			}
			if groups := (n + g - 1) / g; groups < min(n, workers) {
				t.Fatalf("groupSizeFor(%d, %d) = %d makes %d groups: idle workers", n, workers, g, groups)
			}
		}
	}
}
