package main

// agree.go — the streaming-vs-batch agreement sweep behind the `agree`
// artifact. It replays identical per-round availability series through both
// detectors: the batch path (the FFT over the midnight-trimmed series,
// Pipeline.Classify, the oracle the paper's results rest on) and the
// streaming path (the incremental 1 c/d + first-harmonic DFT that
// internal/serve answers live queries with, run offline as a
// serve.Replayer). It does so across world scenarios × fault levels and
// reports per-condition confusion matrices, phase error distributions,
// sleep-UTC deltas and rounds-to-stable-classification. The artifact's
// gated claims (agreeReport.claims) are the contract a classifier change
// must keep.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/netsim"
	"sleepnet/internal/report"
	"sleepnet/internal/serve"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// agreeScenarios are the world shapes the sweep measures under every fault
// level: a clean world, a world with elevated per-block path loss (stressing
// the estimator input), and a world with frequent whole-block outages
// (stressing both detectors with availability collapses that are not
// diurnal). The clean world comes first.
var agreeScenarios = [...]struct {
	name  string
	world world.Config
}{
	{name: "clean"},
	{name: "lossy-net", world: world.Config{MeanLoss: 0.05}},
	{name: "outage-heavy", world: world.Config{OutagesPerBlockWeek: 0.5}},
}

// agreeRetryAttempts is the prober's retry policy, matching the fault
// sweep's resilient configuration.
const agreeRetryAttempts = 3

// Batch oracle classes index confusion-matrix rows; streaming classes index
// columns. Unknown is a streaming-only outcome (the batch oracle always
// decides).
const (
	rowStrict = iota
	rowRelaxed
	rowNon
	numRows
)
const (
	colStrict = iota
	colRelaxed
	colNon
	colUnknown
	numCols
)

var (
	rowNames = [numRows]string{"strict", "relaxed", "non-diurnal"}
	colNames = [numCols]string{"strict", "relaxed", "non-diurnal", "unknown"}
)

func batchRow(c core.DiurnalClass) int {
	switch c {
	case core.StrictDiurnal:
		return rowStrict
	case core.RelaxedDiurnal:
		return rowRelaxed
	default:
		return rowNon
	}
}

func streamCol(c serve.DiurnalClass) int {
	switch c {
	case serve.ClassStrict:
		return colStrict
	case serve.ClassRelaxed:
		return colRelaxed
	case serve.ClassNonDiurnal:
		return colNon
	default:
		return colUnknown
	}
}

// confusion is the per-condition agreement matrix: batch oracle class (row)
// × streaming class (column), counted over compared blocks.
type confusion struct {
	m [numRows][numCols]int
}

func (c *confusion) add(batch core.DiurnalClass, stream serve.DiurnalClass) {
	c.m[batchRow(batch)][streamCol(stream)]++
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

// decided sums blocks the streaming classifier decided (non-unknown).
func (c *confusion) decided() int {
	return c.total() - c.m[rowStrict][colUnknown] - c.m[rowRelaxed][colUnknown] - c.m[rowNon][colUnknown]
}

// classAgree is the exact 3-class agreement over decided blocks.
func (c *confusion) classAgree() float64 {
	d := c.decided()
	if d == 0 {
		return 0
	}
	return float64(c.m[rowStrict][colStrict]+c.m[rowRelaxed][colRelaxed]+c.m[rowNon][colNon]) / float64(d)
}

// strictAgree is the strict-vs-not agreement over decided blocks — the
// boundary the paper's headline results rest on, and the one the streaming
// classifier's dominance rule mirrors most directly.
func (c *confusion) strictAgree() float64 {
	d := c.decided()
	if d == 0 {
		return 0
	}
	agree := c.m[rowStrict][colStrict] +
		c.m[rowRelaxed][colRelaxed] + c.m[rowRelaxed][colNon] +
		c.m[rowNon][colRelaxed] + c.m[rowNon][colNon]
	return float64(agree) / float64(d)
}

// eitherAgree is the diurnal-vs-not agreement over decided blocks: strict
// and relaxed collapse to "diurnal" on both axes.
func (c *confusion) eitherAgree() float64 {
	d := c.decided()
	if d == 0 {
		return 0
	}
	agree := c.m[rowStrict][colStrict] + c.m[rowStrict][colRelaxed] +
		c.m[rowRelaxed][colStrict] + c.m[rowRelaxed][colRelaxed] +
		c.m[rowNon][colNon]
	return float64(agree) / float64(d)
}

// unknownFrac is the share of compared blocks the streaming classifier left
// undecided.
func (c *confusion) unknownFrac() float64 {
	t := c.total()
	if t == 0 {
		return 0
	}
	return float64(t-c.decided()) / float64(t)
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
	// compared counts the blocks that entered the matrix: measured, not
	// sparse, failed or quarantined.
	compared, quarantined int
	confusion             confusion

	// phaseErrRad is the circular distance between the streaming phase
	// (re-anchored to midnight UTC) and the batch FFT phase, over blocks
	// both detectors call diurnal.
	phaseErrRad quantiles
	// sleepDeltaHours is the circular distance between the two detectors'
	// sleep-UTC hour, over the same blocks.
	sleepDeltaHours quantiles
	// roundsToStable is, per decided block, the committed-round count after
	// which the streaming class never changed again.
	roundsToStable quantiles
}

// agreeReport is the full sweep output.
type agreeReport struct {
	seed         uint64
	blocks, days int
	minClassify  int
	conditions   []condition
}

// blockOutcome is one block's replay result inside a condition.
type blockOutcome struct {
	failed      bool // too sparse to measure, or measurement failed
	quarantined bool

	batchClass  core.DiurnalClass
	streamClass serve.DiurnalClass

	bothDiurnal bool
	phaseErrRad float64
	sleepDelta  float64

	decided        bool
	roundsToStable int
}

// runAgree runs the sweep over worlds of blocks blocks probed for days
// days: every scenario measured under every fault level, each block's
// series replayed through both detectors. The report is a function of
// (seed, blocks, days) alone, whatever GOMAXPROCS is.
func runAgree(seed uint64, blocks, days int) (*agreeReport, error) {
	// The streaming classification floor is the engine's default: one
	// virtual day of rounds.
	minClassify := serve.NewBasis(timeseries.DefaultRound).DefaultMinClassify()
	rep := &agreeReport{seed: seed, blocks: blocks, days: days, minClassify: minClassify}
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
			rep.conditions = append(rep.conditions, runCondition(seed, days, sc.name, w, lvl, minClassify))
		}
	}
	return rep, nil
}

// runCondition measures one world under one fault level and replays every
// block through both detectors.
func runCondition(seed uint64, days int, scenario string, w *world.World, lvl faults.Level, minClassify int) condition {
	pcfg := core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(days),
		Seed:   seed,
		Prober: trinocular.Config{Retry: trinocular.RetryConfig{MaxAttempts: agreeRetryAttempts}},
	}
	pl := core.NewPipeline(w.Net, pcfg)

	_, detach := faults.Attach(w.Net, lvl.Config, pcfg.Start)
	defer detach()

	ids := make([]netsim.BlockID, len(w.Blocks))
	for i, b := range w.Blocks {
		ids[i] = b.ID
	}
	outcomes := make([]blockOutcome, len(w.Blocks))
	pl.RunAll(ids, 0, func(i int, run *core.BlockRun, err error) {
		outcomes[i] = replayBlock(pl, run, err, minClassify)
	})

	cond := condition{scenario: scenario, fault: lvl.Label}
	var phaseErrs, sleepDeltas, stables []float64
	for i := range outcomes {
		o := &outcomes[i]
		switch {
		case o.failed:
			continue
		case o.quarantined:
			cond.quarantined++
			continue
		}
		cond.compared++
		cond.confusion.add(o.batchClass, o.streamClass)
		if o.bothDiurnal {
			phaseErrs = append(phaseErrs, o.phaseErrRad)
			sleepDeltas = append(sleepDeltas, o.sleepDelta)
		}
		if o.decided {
			stables = append(stables, float64(o.roundsToStable))
		}
	}
	cond.phaseErrRad = summarize(phaseErrs)
	cond.sleepDeltaHours = summarize(sleepDeltas)
	cond.roundsToStable = summarize(stables)
	return cond
}

// replayBlock takes one block's batch measurement and replays its cleaned Âs
// series through the streaming classifier. Both detectors see the identical
// per-round series; disagreement is therefore attributable to the
// classifiers, not their inputs.
func replayBlock(pl *core.Pipeline, run *core.BlockRun, err error, minClassify int) blockOutcome {
	var o blockOutcome
	pcfg := pl.Config()
	if err != nil {
		o.failed = true
		return o
	}
	if analysis.Quarantined(run.FailedRounds, pcfg.Rounds) {
		// The study layer quarantines this block; its classification is
		// unreliable on both paths, so it does not enter the matrix.
		o.quarantined = true
		return o
	}

	// Batch oracle: FFT classification of the midnight-trimmed series, the
	// exact result the paper's pipeline commits.
	batch, err := pl.Classify(run)
	if err != nil {
		o.failed = true
		return o
	}
	o.batchClass = batch.Class

	// Streaming path: replay the same cleaned series round by round, the
	// way the monitor would publish it into the serve engine, tracking when
	// the class last changed.
	rp := serve.NewReplayer(pcfg.Start, timeseries.DefaultRound, minClassify)
	cur := serve.ClassUnknown
	lastChange := 0
	for r, v := range run.Short.Values {
		rp.Push(v)
		if c, _ := rp.Classify(); c != cur {
			cur = c
			lastChange = r
		}
	}
	o.streamClass = cur
	if cur != serve.ClassUnknown {
		o.decided = true
		o.roundsToStable = lastChange + 1
	}

	if batch.Class.IsDiurnal() && (cur == serve.ClassStrict || cur == serve.ClassRelaxed) {
		o.bothDiurnal = true
		_, streamPhase := rp.Classify()
		// The batch phase is anchored at midnight UTC (the trim); the
		// streaming phase at the campaign start. Re-anchor the streaming
		// phase to midnight before comparing angles.
		startHour := startOfDayHourUTC(pcfg.Start)
		streamAtMidnight := streamPhase - 2*math.Pi*startHour/24
		o.phaseErrRad = circDistRad(streamAtMidnight, batch.Phase)

		batchPeak := analysis.UTCPeakHour(batch.Phase)
		batchSleep := math.Mod(batchPeak+12, 24)
		_, streamSleep := rp.PeakSleepUTC()
		o.sleepDelta = circDistHours(batchSleep, streamSleep)
	}
	return o
}

// circDistRad is the circular distance between two angles, in [0, π].
func circDistRad(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// circDistHours is the circular distance between two times of day, in
// [0, 12].
func circDistHours(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 24)
	if d > 12 {
		d = 24 - d
	}
	return d
}

// startOfDayHourUTC is the start's UTC time-of-day in hours.
func startOfDayHourUTC(t time.Time) float64 {
	u := t.UTC()
	return float64(u.Hour()) + float64(u.Minute())/60 + float64(u.Second())/3600
}

// claims are the sweep's gate. Every claim gates, so a classifier
// change that moves one outside its band fails the run. The clean world
// (clean × fault-free, the first condition) must clear floors on strict
// and class agreement, undecided blocks and the p90 sleep-hour delta; every
// condition must clear looser floors, so faults degrade agreement
// gracefully rather than collapse it.
//
// The floors follow DESIGN §14. The streaming classifier tracks only the
// diurnal bin and its first harmonic, so it cannot reproduce the batch
// relaxed rule, a full-spectrum rank test with no amplitude floor. The
// strict boundary is a dominance test both detectors express in their own
// observables, so it is held near unity; class agreement is held to a
// floor that catches collapse, beneath the ceiling the relaxed divergence
// imposes. The classify floor is one virtual day and campaigns run much
// longer, so a compared block must decide; and a condition that compared
// fewer than 20 blocks measured nothing worth gating.
func (r *agreeReport) claims() []claim {
	clean := &r.conditions[0]
	fewest := math.MaxInt
	minStrict, minClass, maxUnknown := 1.0, 1.0, 0.0
	for i := range r.conditions {
		c := &r.conditions[i].confusion
		fewest = min(fewest, r.conditions[i].compared)
		minStrict = math.Min(minStrict, c.strictAgree())
		minClass = math.Min(minClass, c.classAgree())
		maxUnknown = math.Max(maxUnknown, c.unknownFrac())
	}
	claims := []claim{
		pct("clean strict agree", "", 0.97, 1, clean.confusion.strictAgree()),
		pct("clean class agree", "", 0.55, 1, clean.confusion.classAgree()),
		pct("clean unknown", "", 0, 0.02, clean.confusion.unknownFrac()),
		num("clean sleep Δ p90", "", "%.2fh", 0, 0.5, clean.sleepDeltaHours.p90),
		pct("strict agree, worst condition", "", 0.93, 1, minStrict),
		pct("class agree, worst condition", "", 0.50, 1, minClass),
		pct("unknown, worst condition", "", 0, 0.05, maxUnknown),
		num("compared, fewest in a condition", "", "%.0f", 20, math.Inf(1), float64(fewest)),
	}
	for i := range claims {
		claims[i].gate = true
	}
	return claims
}

// markdown renders the report: one agreement-summary table over all
// conditions, then each condition's confusion matrix and distributions.
func (r *agreeReport) markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "agreement sweep: %d blocks requested per world, %d days, seed %d, classify floor %d rounds\n\n",
		r.blocks, r.days, r.seed, r.minClassify)

	rows := make([][]string, 0, len(r.conditions))
	for i := range r.conditions {
		c := &r.conditions[i]
		rows = append(rows, []string{
			c.scenario, c.fault,
			fmt.Sprint(c.compared), fmt.Sprint(c.quarantined),
			report.Pct(c.confusion.classAgree()), report.Pct(c.confusion.strictAgree()),
			report.Pct(c.confusion.eitherAgree()), report.Pct(c.confusion.unknownFrac()),
			quantCell(c.sleepDeltaHours, "h"),
			quantCell(c.roundsToStable, ""),
		})
	}
	sb.WriteString(report.Table([]string{
		"scenario", "faults", "compared", "quar",
		"class agree", "strict agree", "either agree", "unknown",
		"sleep Δ p50/p90", "stable p50/p90",
	}, rows))

	for i := range r.conditions {
		c := &r.conditions[i]
		fmt.Fprintf(&sb, "\n%s × %s — confusion (batch oracle rows × streaming cols, %d blocks):\n",
			c.scenario, c.fault, c.compared)
		mrows := make([][]string, numRows)
		for ri := 0; ri < numRows; ri++ {
			mrows[ri] = []string{rowNames[ri]}
			for ci := 0; ci < numCols; ci++ {
				mrows[ri] = append(mrows[ri], fmt.Sprint(c.confusion.m[ri][ci]))
			}
		}
		sb.WriteString(report.Table(append([]string{"batch \\ stream"}, colNames[:]...), mrows))
		fmt.Fprintf(&sb, "phase err (rad): %s   sleep Δ (h): %s   rounds-to-stable: %s\n",
			quantFull(c.phaseErrRad), quantFull(c.sleepDeltaHours), quantFull(c.roundsToStable))
	}
	return sb.String()
}

// quantCell compresses a quantiles to "p50/p90" for the summary table.
func quantCell(q quantiles, unit string) string {
	if q.n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f/%.2f%s", q.p50, q.p90, unit)
}

// quantFull renders a quantiles with its sample count.
func quantFull(q quantiles) string {
	if q.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50 %.3f p90 %.3f max %.3f (n=%d)", q.p50, q.p90, q.max, q.n)
}
