package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"sleepnet/internal/faults"
	"sleepnet/internal/netsim"
	"sleepnet/internal/trinocular"
)

// batchRounds keeps the group-equivalence fixture fast while still crossing
// midnight (trim needs a full UTC day) and several restart windows.
const batchRounds = 2*86400/660 + 30

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
