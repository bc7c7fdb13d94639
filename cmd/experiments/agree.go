package main

// agree.go — the live-vs-study agreement sweep behind the `agree` artifact.
// Across world scenarios × fault levels it runs a monitor campaign with a
// serve.Engine as its sink, reads the sealed epoch's class and phase of
// every block at each UTC day end, and compares them with core.ClassifySeries
// — the study's detector (§2.2) — on the block's committed series up to that
// round. The live path runs that same detector at each day end, so the
// artifact's gate (agreeReport.claims) is equality: a serving change that
// lets the live class drift from the study's fails it.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/monitor"
	"sleepnet/internal/netsim"
	"sleepnet/internal/report"
	"sleepnet/internal/serve"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/world"
)

// agreeScenarios are the world shapes the sweep measures under every fault
// level: a clean world, a world with elevated per-block path loss (stressing
// the estimator input), and a world with frequent whole-block outages
// (availability collapses that are not diurnal). The clean world comes
// first.
var agreeScenarios = [...]struct {
	name  string
	world world.Config
}{
	{name: "clean"},
	{name: "lossy-net", world: world.Config{MeanLoss: 0.05}},
	{name: "outage-heavy", world: world.Config{OutagesPerBlockWeek: 0.5}},
}

// Classes index the confusion matrix on both axes: the study's class (row)
// and the served class (column). Unknown is core.ClassifySeries refusing
// the series (under two whole UTC days), on either side.
const (
	classStrict = iota
	classRelaxed
	classNon
	classUnknown
	numClasses
)

var classNames = [numClasses]string{"strict", "relaxed", "non-diurnal", "unknown"}

// classIndex maps a class name, as BlockStatus.Class spells it, to its
// matrix index.
func classIndex(name string) int {
	for i, n := range classNames {
		if n == name {
			return i
		}
	}
	return classUnknown
}

// confusion is the per-condition agreement matrix: study class (row) ×
// served class (column), counted over every block at every day end.
type confusion struct {
	m [numClasses][numClasses]int
}

func (c *confusion) total() int {
	n := 0
	for i := range c.m {
		for j := range c.m[i] {
			n += c.m[i][j]
		}
	}
	return n
}

// classAgree is the share of the matrix on its diagonal.
func (c *confusion) classAgree() float64 {
	t := c.total()
	if t == 0 {
		return 0
	}
	d := 0
	for i := range c.m {
		d += c.m[i][i]
	}
	return float64(d) / float64(t)
}

// quantiles summarizes a per-block distribution. n = 0 means the condition
// produced no samples: every field is zero, never NaN, so the printed report
// stays byte-stable.
type quantiles struct {
	n             int
	p50, p90, max float64
}

func summarize(xs []float64) quantiles {
	if len(xs) == 0 {
		return quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantiles{n: len(s), p50: s[(len(s)-1)/2], p90: s[(len(s)-1)*9/10], max: s[len(s)-1]}
}

// condition is one scenario × fault level cell of the sweep.
type condition struct {
	scenario, fault string
	// blocks is how many blocks the campaign monitored; dayEnds how many
	// UTC day ends it crossed.
	blocks, dayEnds int
	confusion       confusion
	// equal counts the block-day-ends whose served class and phase bits are
	// the study's (the phase only within the diurnal classes).
	equal int
	// final counts the blocks of each served class at the last day end.
	final [numClasses]int
	// daysToStable is, per block, the day end from which the served class
	// equals the end-of-campaign class.
	daysToStable quantiles
}

// equalFrac is the share of block-day-ends served as the study classifies
// them.
func (c *condition) equalFrac() float64 {
	if t := c.confusion.total(); t > 0 {
		return float64(c.equal) / float64(t)
	}
	return 0
}

// agreeReport is the full sweep output.
type agreeReport struct {
	seed         uint64
	blocks, days int
	conditions   []condition
}

// runAgree runs the sweep over worlds of blocks blocks monitored for days
// days: every scenario under every fault level. The report is a function of
// (seed, blocks, days) alone, whatever GOMAXPROCS is.
func runAgree(seed uint64, blocks, days int) (*agreeReport, error) {
	rep := &agreeReport{seed: seed, blocks: blocks, days: days}
	// Fault-free first, then 2% and 10% loss, then a rate limit of 4 probes
	// a round.
	levels := faults.SweepLevels(seed, []float64{0.02, 0.10}, []int{4})
	for si, sc := range agreeScenarios {
		wc := sc.world
		wc.Blocks = blocks
		// Decorrelate the scenario worlds without making them depend on the
		// scenario list order of the *other* scenarios.
		wc.Seed = seed ^ (uint64(si+1) * 0x9e3779b97f4a7c15)
		w, err := world.Generate(wc)
		if err != nil {
			return nil, fmt.Errorf("agree: scenario %s: %w", sc.name, err)
		}
		for _, lvl := range levels {
			cond, err := runCondition(seed, days, sc.name, w.Net, lvl)
			if err != nil {
				return nil, fmt.Errorf("agree: %s × %s: %w", sc.name, lvl.Label, err)
			}
			rep.conditions = append(rep.conditions, cond)
		}
	}
	return rep, nil
}

// dayEndRecorder is the campaign's sink: a serve.Engine whose sealed epoch
// it keeps after every publication that seals one ending a UTC day. The
// campaign runs one shard, so every round count seals an epoch, right after
// its publication, and the epoch holds exactly that many rounds. Day ends
// are found here from the clock alone, not by asking the monitor, so the
// sweep does not trust the code it checks.
type dayEndRecorder struct {
	*serve.Engine
	start  time.Time
	sealed int
	// epochs are the day-end epochs in round order.
	epochs []*serve.Epoch
}

func (d *dayEndRecorder) PublishRound(shard, round int, deltas []monitor.RoundPub) {
	d.Engine.PublishRound(shard, round, deltas)
	ep := d.Epoch()
	if ep == nil || ep.Rounds == d.sealed {
		return
	}
	d.sealed = ep.Rounds
	end := d.start.Add(time.Duration(ep.Rounds) * timeseries.DefaultRound)
	if !end.Truncate(24 * time.Hour).Equal(end.Add(-timeseries.DefaultRound).Truncate(24 * time.Hour)) {
		d.epochs = append(d.epochs, ep)
	}
}

// runCondition monitors one world under one fault level and compares every
// day-end epoch with the study's detector on the committed series.
func runCondition(seed uint64, days int, scenario string, net *netsim.Network, lvl faults.Level) (condition, error) {
	start := analysis.DefaultStart
	_, detach := faults.Attach(net, lvl.Config, start)
	defer detach()
	rec := &dayEndRecorder{Engine: serve.NewEngine(serve.EngineConfig{}), start: start}
	m, err := monitor.New(monitor.Config{
		Net: net, Start: start, Rounds: analysis.RoundsForDays(days),
		Shards: 1, Seed: seed, Sink: rec,
	})
	if err != nil {
		return condition{}, err
	}
	res, err := m.Run(context.Background())
	if err != nil {
		return condition{}, err
	}
	st, err := res.Study()
	if err != nil {
		return condition{}, err
	}

	cond := condition{scenario: scenario, fault: lvl.Label, blocks: len(st.Blocks), dayEnds: len(rec.epochs)}
	served := make([][]int, len(st.Blocks)) // served class index by block, day end
	for _, ep := range rec.epochs {
		listed, _, err := ep.Range(context.Background(), 0, ^netsim.BlockID(0), ep.Len(), false)
		if err != nil {
			return condition{}, err
		}
		if len(listed) != len(st.Blocks) {
			return condition{}, fmt.Errorf("epoch of %d rounds lists %d blocks, study %d", ep.Rounds, len(listed), len(st.Blocks))
		}
		for i := range listed {
			bs, sb := &listed[i], &st.Blocks[i]
			if bs.ID != sb.ID {
				return condition{}, fmt.Errorf("epoch block %d is %s, study's %s", i, bs.ID, sb.ID)
			}
			study, phase := studyClass(start, sb.Short[:ep.Rounds])
			live := classIndex(bs.Class)
			cond.confusion.m[study][live]++
			if live == study && (bs.Phase == nil) == (phase == nil) &&
				(phase == nil || math.Float64bits(*bs.Phase) == math.Float64bits(*phase)) {
				cond.equal++
			}
			served[i] = append(served[i], live)
		}
	}
	var stable []float64
	for _, cs := range served {
		if len(cs) == 0 {
			continue
		}
		last := cs[len(cs)-1]
		cond.final[last]++
		k := len(cs)
		for k > 0 && cs[k-1] == last {
			k--
		}
		stable = append(stable, float64(k+1))
	}
	cond.daysToStable = summarize(stable)
	return cond, nil
}

// studyClass is the study's detector on a committed series prefix: the
// class's matrix index and, for a diurnal class, the phase.
func studyClass(start time.Time, short []float64) (int, *float64) {
	res, _, err := core.ClassifySeries(timeseries.New(start, timeseries.DefaultRound, short))
	switch {
	case err != nil:
		return classUnknown, nil
	case res.Class == core.StrictDiurnal:
		return classStrict, &res.Phase
	case res.Class == core.RelaxedDiurnal:
		return classRelaxed, &res.Phase
	}
	return classNon, nil
}

// claims are the sweep's gate; every claim gates. The served class and
// phase must be the study's at every day end of every condition, the last
// day end must leave no block undecided (so equality is not a comparison of
// two unknowns), and a condition must monitor at least 20 blocks to measure
// anything worth gating. DESIGN §14 states the contract.
func (r *agreeReport) claims() []claim {
	fewest, minEqual, maxUnknown := math.MaxInt, 1.0, 0.0
	for i := range r.conditions {
		c := &r.conditions[i]
		fewest = min(fewest, c.blocks)
		minEqual = math.Min(minEqual, c.equalFrac())
		if c.blocks > 0 {
			maxUnknown = math.Max(maxUnknown, float64(c.final[classUnknown])/float64(c.blocks))
		}
	}
	claims := []claim{
		pct("served = study at day ends, worst condition", "", 1, 1, minEqual),
		pct("unknown at the last day end, worst condition", "", 0, 0, maxUnknown),
		num("blocks, fewest in a condition", "", "%.0f", 20, math.Inf(1), float64(fewest)),
	}
	for i := range claims {
		claims[i].gate = true
	}
	return claims
}

// markdown renders the report: one summary table over all conditions, then
// each condition's confusion matrix.
func (r *agreeReport) markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "agreement sweep: %d blocks requested per world, %d days, seed %d; one monitor shard feeding a serve.Engine\n\n",
		r.blocks, r.days, r.seed)

	rows := make([][]string, 0, len(r.conditions))
	for i := range r.conditions {
		c := &r.conditions[i]
		rows = append(rows, []string{
			c.scenario, c.fault,
			fmt.Sprint(c.blocks), fmt.Sprint(c.dayEnds),
			report.Pct(c.equalFrac()), report.Pct(c.confusion.classAgree()),
			fmt.Sprintf("%d/%d/%d/%d", c.final[classStrict], c.final[classRelaxed], c.final[classNon], c.final[classUnknown]),
			quantCell(c.daysToStable),
		})
	}
	sb.WriteString(report.Table([]string{
		"scenario", "faults", "blocks", "day ends",
		"class+phase equal", "class agree",
		"last day end s/r/n/u", "stable from day end p50/p90",
	}, rows))

	for i := range r.conditions {
		c := &r.conditions[i]
		fmt.Fprintf(&sb, "\n%s × %s — confusion (study rows × served cols, %d blocks × %d day ends):\n",
			c.scenario, c.fault, c.blocks, c.dayEnds)
		mrows := make([][]string, numClasses)
		for ri := range mrows {
			mrows[ri] = []string{classNames[ri]}
			for ci := 0; ci < numClasses; ci++ {
				mrows[ri] = append(mrows[ri], fmt.Sprint(c.confusion.m[ri][ci]))
			}
		}
		sb.WriteString(report.Table(append([]string{"study \\ served"}, classNames[:]...), mrows))
		fmt.Fprintf(&sb, "stable from day end: %s\n", quantFull(c.daysToStable))
	}
	return sb.String()
}

// quantCell compresses a quantiles to "p50/p90" for the summary table.
func quantCell(q quantiles) string {
	if q.n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f", q.p50, q.p90)
}

// quantFull renders a quantiles with its sample count.
func quantFull(q quantiles) string {
	if q.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50 %.0f p90 %.0f max %.0f (n=%d)", q.p50, q.p90, q.max, q.n)
}
