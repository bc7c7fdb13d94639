package main

// enact.go — the traced drive: a single-threaded re-enactment of
// core.Pipeline.RunBlocks built from the layers' public calls only, so the
// harness can put a span around each call without editing the program. It
// mirrors the pipeline with collection artifacts off (prior 0.5, prober
// seed cfg.seed^id, groups of 64 in lockstep) and every traced run checks
// its classes, phases and probe counts against the real pipeline.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// enactGroupSize is analysis.StudyConfig's default BatchGroup.
const enactGroupSize = 64

// truthWarmupRounds mirrors the estimator warm-up the paper (and the
// analysis package) leaves out of the truth comparison.
const truthWarmupRounds = 200

type enactConfig struct {
	start  time.Time
	rounds int
	seed   uint64
	prober trinocular.Config
	// truth also enumerates ground truth (Block.TrueA every round),
	// classifies it and pools (truth, estimate) pairs: the truth-7d drive.
	truth bool
}

// enacted is one block's outcome.
type enacted struct {
	id     netsim.BlockID
	sparse bool
	class  core.DiurnalClass
	phase  float64
	probes int64
	// truth drive only
	truthClass core.DiurnalClass
}

// enactCounts are the work counts taken at the same boundaries as the spans.
type enactCounts struct {
	batches, packets  int64 // netsim.DeliverBatch calls and the packets in them
	probes, positives int64 // from trinocular.RoundObs
	blockRounds       int64
	observations      int64 // Estimator.Observe calls
	blocks            int64 // blocks cleaned and classified
	truthBlockRounds  int64 // Block.TrueA calls
	// pooled (truth, estimate) pairs of the truth drive
	poolTruth, poolEst []float64
}

// tracedNet is the delivery wrapper handed to trinocular.New in place of the
// network: the embedded *netsim.Network supplies every method the prober
// needs and DeliverBatch, the only one the batched path calls, gets a span.
type tracedNet struct {
	*netsim.Network
	tr *tracer
	c  *enactCounts
}

var _ trinocular.ProbeNetworkBatched = (*tracedNet)(nil)

func (n *tracedNet) DeliverBatch(buf *netsim.BatchBuffer, pkts [][]byte, now time.Time) []netsim.Response {
	sp := n.tr.begin(layNetsimDeliver)
	out := n.Network.DeliverBatch(buf, pkts, now)
	n.tr.end(sp)
	n.c.batches++
	n.c.packets += int64(len(pkts))
	return out
}

// lane is one block in flight within a group.
type lane struct {
	blk     *netsim.Block
	prober  *trinocular.Prober
	est     *core.Estimator
	samples []timeseries.Sample
	out     *enacted
}

// enactGroup measures one group of blocks in lockstep. With a nil tracer it
// runs bare: no wrapper around the network and no spans; the counts, a few
// integer adds per round, are kept either way so both passes do equal work.
func enactGroup(tr *tracer, net *netsim.Network, ids []netsim.BlockID, cfg enactConfig, c *enactCounts) ([]enacted, error) {
	var pn trinocular.ProbeNetwork = net
	if tr != nil {
		pn = &tracedNet{Network: net, tr: tr, c: c}
	}
	out := make([]enacted, len(ids))
	lanes := make([]lane, 0, len(ids))
	for i, id := range ids {
		out[i].id = id
		blk := net.Block(id)
		if blk == nil {
			return nil, fmt.Errorf("enact: block %s not in network", id)
		}
		p := trinocular.New(pn, cfg.prober, cfg.seed^uint64(id))
		if err := p.AddBlock(id, blk.EverActive()); err != nil {
			if errors.Is(err, trinocular.ErrTooSparse) {
				out[i].sparse = true
				continue
			}
			return nil, fmt.Errorf("enact: %w", err)
		}
		lanes = append(lanes, lane{
			blk: blk, prober: p, est: core.NewEstimator(0.5),
			samples: make([]timeseries.Sample, 0, cfg.rounds), out: &out[i],
		})
	}
	if len(lanes) == 0 {
		return out, nil
	}

	bc := trinocular.NewBatchContext()
	probers := make([]*trinocular.Prober, len(lanes))
	bids := make([]netsim.BlockID, len(lanes))
	aOps := make([]float64, len(lanes))
	obs := make([]trinocular.RoundObs, len(lanes))
	for k := range lanes {
		probers[k], bids[k] = lanes[k].prober, lanes[k].out.id
	}
	for r := 0; r < cfg.rounds; r++ {
		now := cfg.start.Add(time.Duration(r) * timeseries.DefaultRound)
		for k := range lanes {
			aOps[k] = lanes[k].est.Operational()
		}
		sp := tr.begin(layTrinocularRound)
		err := trinocular.ProbeRoundsBatchGroup(bc, probers, bids, aOps, now, obs)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("enact: round %d: %w", r, err)
		}
		sp = tr.begin(layCoreEstimator)
		observed := 0
		for k := range lanes {
			o := &obs[k]
			if o.Failed() {
				continue // a gap, filled by cleaning, as in the pipeline
			}
			l := &lanes[k]
			l.est.Observe(o.Positive, o.Total)
			l.samples = append(l.samples, timeseries.Sample{Round: r, Value: l.est.ShortTerm()})
			observed++
		}
		tr.end(sp)
		c.blockRounds += int64(len(lanes))
		c.observations += int64(observed)
		for k := range lanes {
			c.probes += int64(obs[k].Total + obs[k].SendErrors)
			c.positives += int64(obs[k].Positive)
		}
	}

	for k := range lanes {
		l := &lanes[k]
		l.out.probes = l.prober.ProbesSent()

		sp := tr.begin(layTimeseriesClean)
		cleaned, _, err := timeseries.Clean(l.samples, cfg.rounds)
		if err != nil {
			return nil, fmt.Errorf("enact: cleaning %s: %w", l.out.id, err)
		}
		short := timeseries.New(cfg.start, timeseries.DefaultRound, cleaned)
		trimmed, err := timeseries.TrimToMidnightUTC(short)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("enact: trimming %s: %w", l.out.id, err)
		}
		days := timeseries.NearestDays(trimmed.Len(), trimmed.Period)

		sp = tr.begin(layCoreClassify)
		res, err := core.DetectDiurnal(trimmed.Values, days)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("enact: classifying %s: %w", l.out.id, err)
		}
		l.out.class, l.out.phase = res.Class, res.Phase
		c.blocks++
		if cfg.truth {
			if err := enactTruth(tr, l, short.Values, cfg, c); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// enactTruth is the survey half of the truth-7d drive for one block:
// enumerate ground truth every round, classify it, pool the pairs.
func enactTruth(tr *tracer, l *lane, est []float64, cfg enactConfig, c *enactCounts) error {
	sp := tr.begin(layNetsimTruth)
	truth := make([]float64, cfg.rounds)
	for r := range truth {
		truth[r] = l.blk.TrueA(cfg.start.Add(time.Duration(r) * timeseries.DefaultRound))
	}
	tr.end(sp)

	sp = tr.begin(layCoreClassify)
	res, _, err := core.ClassifySeries(timeseries.New(cfg.start, timeseries.DefaultRound, truth))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("enact: classifying truth of %s: %w", l.out.id, err)
	}
	l.out.truthClass = res.Class

	c.truthBlockRounds += int64(cfg.rounds)
	sp = tr.begin(layAnalysisPool)
	for r := truthWarmupRounds; r < len(est) && r < len(truth); r++ {
		c.poolTruth = append(c.poolTruth, truth[r])
		c.poolEst = append(c.poolEst, est[r])
	}
	tr.end(sp)
	return nil
}

// tracedWorld generates a workload's world under a span and records the
// world layer's two metrics: generation time and live heap per block.
func tracedWorld(tr *tracer, res *result, generate func() (*world.World, error)) (*world.World, error) {
	before := heapAfterGC()
	t0 := nanos()
	sp := tr.begin(layWorldGenerate)
	w, err := generate()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	res.set("world.generate_s", secondsSince(t0))
	res.set("world.heap_bytes_per_block", float64(heapAfterGC()-before)/float64(len(w.Blocks)))
	return w, nil
}

// blockIDs lists the world's blocks in generation order.
func blockIDs(w *world.World) []netsim.BlockID {
	ids := make([]netsim.BlockID, len(w.Blocks))
	for i, b := range w.Blocks {
		ids[i] = b.ID
	}
	return ids
}

// driveResult is what an interleaved traced/bare drive measured.
type driveResult struct {
	blocks   []enacted // from the traced passes, in input order
	counts   enactCounts
	tracedNS int64 // summed wall of the traced group passes
	bareNS   int64 // summed wall of the bare group passes
	// ratios[k] holds traced/bare wall of every group whose traced pass ran
	// first (k=0) or second (k=1).
	ratios    [2][]float64
	spanFirst int // index of the drive's first span in the tracer
}

// drive runs every group twice, once traced and once bare, alternating
// which goes first so that neither side systematically inherits the other's
// warm caches or a drifting host. The layer numbers come from the traced
// passes alone; the tracing overhead comes from the per-group ratios.
func drive(tr *tracer, net *netsim.Network, ids []netsim.BlockID, cfg enactConfig) (*driveResult, error) {
	dr := &driveResult{spanFirst: len(tr.spans)}
	for gi, lo := 0, 0; lo < len(ids); gi, lo = gi+1, lo+enactGroupSize {
		hi := lo + enactGroupSize
		if hi > len(ids) {
			hi = len(ids)
		}
		group := ids[lo:hi]
		var traced, bare []enacted
		var tracedNS, bareNS int64
		for pass := 0; pass < 2; pass++ {
			if (pass == 0) == (gi%2 == 0) {
				tr.setWork(gi)
				t0 := nanos()
				root := tr.begin(layDrive)
				out, err := enactGroup(tr, net, group, cfg, &dr.counts)
				tr.end(root)
				tracedNS = nanos() - t0
				if err != nil {
					return nil, err
				}
				traced = out
			} else {
				var discard enactCounts
				t0 := nanos()
				out, err := enactGroup(nil, net, group, cfg, &discard)
				bareNS = nanos() - t0
				if err != nil {
					return nil, err
				}
				bare = out
			}
		}
		dr.tracedNS += tracedNS
		dr.bareNS += bareNS
		dr.ratios[gi%2] = append(dr.ratios[gi%2], float64(tracedNS)/float64(bareNS))
		for i := range traced {
			if traced[i] != bare[i] {
				return nil, check(false, "traced and bare passes of the re-enactment disagree on block %s", traced[i].id)
			}
		}
		dr.blocks = append(dr.blocks, traced...)
	}
	return dr, nil
}

// layerMetrics turns a drive's spans and counts into the per-layer metrics
// shared by the study and truth workloads.
func (dr *driveResult) layerMetrics(tr *tracer, res *result) {
	tot := aggregate(tr.spans, dr.spanFirst)
	c := &dr.counts
	per := func(ns int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	res.set("netsim.deliver_s", seconds(tot[layNetsimDeliver].Self))
	res.set("netsim.deliver_probes", float64(c.packets))
	res.set("netsim.deliver_ns_per_probe", per(tot[layNetsimDeliver].Self, c.packets))
	res.set("netsim.deliver_batch_mean", per(c.packets, c.batches))
	res.set("netsim.truth_s", seconds(tot[layNetsimTruth].Self))
	res.set("netsim.truth_ns_per_block_round", per(tot[layNetsimTruth].Self, c.truthBlockRounds))

	res.set("trinocular.round_self_s", seconds(tot[layTrinocularRound].Self))
	res.set("trinocular.round_self_ns_per_block_round", per(tot[layTrinocularRound].Self, c.blockRounds))
	res.set("trinocular.probes_per_block_round", per(c.probes, c.blockRounds))
	res.set("trinocular.positive_frac", per(c.positives, c.probes))

	res.set("core.estimator_s", seconds(tot[layCoreEstimator].Self))
	res.set("core.estimator_ns_per_obs", per(tot[layCoreEstimator].Self, c.observations))
	res.set("core.classify_s", seconds(tot[layCoreClassify].Self))
	res.set("core.classify_ns_per_block", per(tot[layCoreClassify].Self, c.blocks))
	res.set("timeseries.clean_s", seconds(tot[layTimeseriesClean].Self))
	res.set("timeseries.clean_ns_per_block", per(tot[layTimeseriesClean].Self, c.blocks))

	driveNS := tot[layDrive].Total
	res.set("trace.drive_s", seconds(driveNS))
	if driveNS > 0 {
		res.set("trace.coverage_frac", 1-float64(tot[layDrive].Self)/float64(driveNS))
	}
	res.set("trace.overhead_frac", dr.overhead())
}

// overhead is the tracing overhead: traced over bare wall, less one. It is
// the geometric mean of two medians — over the groups traced first and over
// the groups traced second — so that a descheduled pass moves one ratio of
// many and the second pass's warmer caches cancel between the two halves.
func (dr *driveResult) overhead() float64 {
	if len(dr.ratios[0]) == 0 || len(dr.ratios[1]) == 0 {
		if dr.bareNS == 0 {
			return 0
		}
		return float64(dr.tracedNS)/float64(dr.bareNS) - 1
	}
	return math.Sqrt(median(dr.ratios[0])*median(dr.ratios[1])) - 1
}
