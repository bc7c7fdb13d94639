package core

import (
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/metrics"
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
// (diurnal, stable, flaky, outage-prone, patchy, sparse), a wire fault
// injector, collection artifacts, retries, and restart downtime. Each call
// builds an independent world so the two probe paths share no state; reg
// receives the prober's counters.
func buildBatchPipeline(reg *metrics.Registry) (*Pipeline, []netsim.BlockID) {
	net := netsim.NewNetwork(77)

	diurnal := mkDiurnalBlock(netsim.MakeBlockID(27, 1, 1), 80)
	stable := mkStableBlock(netsim.MakeBlockID(27, 1, 2), 60, 1)
	flaky := mkStableBlock(netsim.MakeBlockID(27, 1, 3), 90, 0.5)
	outage := mkStableBlock(netsim.MakeBlockID(27, 1, 4), 70, 1)
	outage.GatewayUnreachableProb = 0.4
	outage.Outages = []netsim.Interval{
		{Start: start.Add(5 * time.Hour), End: start.Add(9 * time.Hour)},
	}
	patchy := mkStableBlock(netsim.MakeBlockID(27, 1, 5), 50, 0.7)
	sparse := mkStableBlock(netsim.MakeBlockID(27, 1, 6), 4, 1)

	ids := make([]netsim.BlockID, 0, 7)
	for _, b := range []*netsim.Block{diurnal, stable, flaky, outage, patchy, sparse} {
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
	}, start))

	cfg := PipelineConfig{
		Start:         start,
		Rounds:        batchRounds,
		Seed:          64, // puts a block inside the restart downtime window
		MissingRate:   0.03,
		DuplicateRate: 0.02,
		Prober: trinocular.Config{
			RestartInterval: 6 * time.Hour,
			Retry:           trinocular.RetryConfig{MaxAttempts: 3},
		},
		Metrics: reg,
	}
	return NewPipeline(net, cfg), ids
}

// TestRunBlocksMatchesRunBlock is the pipeline-level equivalence gate: for
// every group size, the lockstep group runner must return, block for block,
// exactly what measuring each block alone (RunBlock, a group of one) returns
// — records, series, classifications, and error slots alike — under wire
// faults, collection artifacts, retries, and restart downtime.
func TestRunBlocksMatchesRunBlock(t *testing.T) {
	reg := metrics.New()
	plRef, ids := buildBatchPipeline(reg)
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
	if reg.Snapshot().Counter("trinocular.rounds_cold") == 0 {
		t.Fatal("fixture too tame: no block probed a cold restart round")
	}

	for _, group := range []int{3, len(ids)} {
		pl, _ := buildBatchPipeline(metrics.New())
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
// retries mid-phase) with collection artifacts (missing and duplicated
// rounds), for every worker count and group size — the derived one
// included — fn sees every index exactly once, with exactly what measuring
// that block alone returns. Groups of 64 over its 42 ids run wholly on
// groupStarts' shrinking tail. The record is compared inside fn, the only
// time it is valid: a worker measures its next group into the same lane
// storage, so a grid, Âo or outage array not reset between blocks shows as
// a divergence. An id the network does not know and a sparse block report
// through err and leave their group's other lanes undisturbed.
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
		Start:         start,
		Rounds:        batchRounds,
		Seed:          41,
		MissingRate:   0.03,
		DuplicateRate: 0.02,
		Prober:        trinocular.Config{Retry: trinocular.RetryConfig{MaxAttempts: 2}},
	})
	// Every run gets a fresh tap: the injector keeps per-block state.
	arm := func() {
		w.Net.SetTap(laneRetryTap{
			Tap: faults.New(faults.Config{
				Seed:              41 ^ 0xfa17,
				LossRate:          0.02,
				CorruptRate:       0.01,
				RateLimitPerRound: 12,
			}, start),
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
	var filled, dups, outages int
	for _, run := range want {
		if run != nil {
			filled += run.CleanStats.Filled
			dups += run.CleanStats.Duplicates
			outages += len(run.Outages)
		}
	}
	if filled == 0 || dups == 0 || outages == 0 {
		t.Fatalf("fixture too tame: %d filled rounds, %d duplicates, %d outage events", filled, dups, outages)
	}

	for _, workers := range []int{1, 2, 5} {
		for _, group := range []int{1, 7, 64, 0} {
			arm()
			calls := make([]atomic.Int32, len(ids))
			same := make([]bool, len(ids))
			fn := func(i int, run *BlockRun, err error) {
				calls[i].Add(1)
				same[i] = sameOutcome(want[i], wantErr[i], run, err)
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
				if !same[i] {
					t.Fatalf("workers %d group %d block %s: diverged from the block measured alone", workers, group, id)
				}
			}
		}
	}

	pl.RunAll(nil, 2, func(i int, _ *BlockRun, _ error) {
		t.Errorf("fn called for index %d of an empty campaign", i)
	})
}

// TestGroupStarts holds runAll's schedule to what dealing depends on: every
// index is in exactly one group, groups are contiguous, their sizes never
// grow and never exceed g, and the schedule is the same on every call. A g
// of at most minTailGroup is left whole (truth-7d's groups of 6), and a
// campaign long enough to shrink ends in at least 2·workers groups smaller
// than g, so no worker measures a full group alone at the end.
func TestGroupStarts(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 2500} {
		for _, workers := range []int{1, 2, 8} {
			for _, g := range []int{1, 6, 64} {
				starts := groupStarts(n, workers, g)
				if len(starts) == 0 || starts[0] != 0 && n > 0 || starts[len(starts)-1] != n {
					t.Fatalf("n %d workers %d g %d: starts %v do not run from 0 to n", n, workers, g, starts)
				}
				seen := make([]int, n)
				prev, small := g, 0
				for k := 0; k+1 < len(starts); k++ {
					lo, hi := starts[k], starts[k+1]
					size := hi - lo
					if size < 1 || size > prev {
						t.Fatalf("n %d workers %d g %d: group %d is [%d, %d) after a group of %d", n, workers, g, k, lo, hi, prev)
					}
					if g <= minTailGroup && hi < n && size != g {
						t.Fatalf("n %d workers %d g %d: group %d is %d blocks, want every group but the last g long", n, workers, g, k, size)
					}
					if size < g {
						small++
					}
					for i := lo; i < hi; i++ {
						seen[i]++
					}
					prev = size
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n %d workers %d g %d: index %d in %d groups", n, workers, g, i, c)
					}
				}
				if g > minTailGroup && n >= 2*workers*g && small < 2*workers {
					t.Fatalf("n %d workers %d g %d: %d groups below g at the end, want at least %d", n, workers, g, small, 2*workers)
				}
				if again := groupStarts(n, workers, g); !slices.Equal(again, starts) {
					t.Fatalf("n %d workers %d g %d: schedule %v, then %v", n, workers, g, starts, again)
				}
			}
		}
	}
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
