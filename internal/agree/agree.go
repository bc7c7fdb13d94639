// Package agree is the streaming-vs-batch agreement harness: the validation
// arm for the streaming diurnal classifier that internal/serve answers live
// queries with. It replays identical per-round availability series through
// both detectors — the batch path (dsp FFT over the midnight-trimmed series,
// via core.Pipeline, the golden oracle the paper's results rest on) and the
// streaming path (the incremental 1 c/d + first-harmonic DFT extracted from
// internal/serve as a Replayer) — across world scenarios × fault levels,
// and reports per-condition confusion matrices, phase error distributions,
// sleep-UTC deltas, and rounds-to-stable-classification.
//
// The harness exists so future classifier changes cannot silently diverge
// from the batch oracle: Contract (contract.go) turns the report into a
// pass/fail gate that CI enforces (the `agreement` job).
package agree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/core"
	"sleepnet/internal/faults"
	"sleepnet/internal/netsim"
	"sleepnet/internal/serve"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/trinocular"
	"sleepnet/internal/world"
)

// Scenario is one world shape the sweep measures under every fault level.
type Scenario struct {
	// Name labels the scenario in reports ("clean", "lossy-net", ...).
	Name string
	// World configures generation; Blocks and Seed are filled in by the
	// harness so every scenario measures the same population size from a
	// scenario-decorrelated seed.
	World world.Config
}

// DefaultScenarios is the standard world sweep: a clean world, a world with
// elevated per-block path loss (stressing the estimator input), and a world
// with frequent whole-block outages (stressing both detectors with
// availability collapses that are not diurnal).
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "clean"},
		{Name: "lossy-net", World: world.Config{MeanLoss: 0.05}},
		{Name: "outage-heavy", World: world.Config{OutagesPerBlockWeek: 0.5}},
	}
}

// Config controls an agreement run.
type Config struct {
	// Scenarios are the world shapes to sweep (default: DefaultScenarios).
	Scenarios []Scenario
	// LossRates and RateLimits define the fault levels via
	// faults.SweepLevels; the fault-free baseline always runs first.
	// Defaults: loss 2% and 10%; rate limit 4/round.
	LossRates  []float64
	RateLimits []int
	// Blocks is the world size per condition (default 150).
	Blocks int
	// Days of probing per run (default 7).
	Days int
	// Seed drives world generation, measurement, and fault draws.
	Seed uint64
	// Workers bounds per-condition parallelism (default GOMAXPROCS).
	Workers int
}

// retryAttempts is the prober's retry policy, matching the fault sweep's
// resilient configuration.
const retryAttempts = 3

func (c Config) withDefaults() Config {
	if c.Scenarios == nil {
		c.Scenarios = DefaultScenarios()
	}
	if c.LossRates == nil {
		c.LossRates = []float64{0.02, 0.10}
	}
	if c.RateLimits == nil {
		c.RateLimits = []int{4}
	}
	if c.Blocks == 0 {
		c.Blocks = 150
	}
	if c.Days == 0 {
		c.Days = 7
	}
	return c
}

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

// RowNames and ColNames label the confusion matrix for reports.
var (
	RowNames = [numRows]string{"strict", "relaxed", "non-diurnal"}
	ColNames = [numCols]string{"strict", "relaxed", "non-diurnal", "unknown"}
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

// Confusion is the per-condition agreement matrix: batch oracle class (row)
// × streaming class (column), counted over compared blocks.
type Confusion struct {
	M [numRows][numCols]int `json:"m"`
}

// Add counts one block.
func (c *Confusion) Add(batch core.DiurnalClass, stream serve.DiurnalClass) {
	c.M[batchRow(batch)][streamCol(stream)]++
}

// Total sums all cells.
func (c *Confusion) Total() int {
	n := 0
	for i := range c.M {
		for j := range c.M[i] {
			n += c.M[i][j]
		}
	}
	return n
}

// Decided sums blocks the streaming classifier decided (non-unknown).
func (c *Confusion) Decided() int {
	return c.Total() - c.M[rowStrict][colUnknown] - c.M[rowRelaxed][colUnknown] - c.M[rowNon][colUnknown]
}

// ClassAgree is the exact 3-class agreement over decided blocks.
func (c *Confusion) ClassAgree() float64 {
	d := c.Decided()
	if d == 0 {
		return 0
	}
	return float64(c.M[rowStrict][colStrict]+c.M[rowRelaxed][colRelaxed]+c.M[rowNon][colNon]) / float64(d)
}

// StrictAgree is the strict-vs-not agreement over decided blocks — the
// boundary the paper's headline results rest on, and the one the streaming
// classifier's dominance rule mirrors most directly.
func (c *Confusion) StrictAgree() float64 {
	d := c.Decided()
	if d == 0 {
		return 0
	}
	agree := c.M[rowStrict][colStrict] +
		c.M[rowRelaxed][colRelaxed] + c.M[rowRelaxed][colNon] +
		c.M[rowNon][colRelaxed] + c.M[rowNon][colNon]
	return float64(agree) / float64(d)
}

// EitherAgree is the diurnal-vs-not agreement over decided blocks: strict
// and relaxed collapse to "diurnal" on both axes.
func (c *Confusion) EitherAgree() float64 {
	d := c.Decided()
	if d == 0 {
		return 0
	}
	agree := c.M[rowStrict][colStrict] + c.M[rowStrict][colRelaxed] +
		c.M[rowRelaxed][colStrict] + c.M[rowRelaxed][colRelaxed] +
		c.M[rowNon][colNon]
	return float64(agree) / float64(d)
}

// UnknownFrac is the share of compared blocks the streaming classifier left
// undecided.
func (c *Confusion) UnknownFrac() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(t-c.Decided()) / float64(t)
}

// Quantiles summarizes a per-block distribution. N = 0 means the condition
// produced no samples (all fields zero, never NaN — the report must stay
// JSON-encodable and byte-stable).
type Quantiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	Max float64 `json:"max"`
}

func summarize(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantiles{N: len(s), P50: s[(len(s)-1)/2], P90: s[(len(s)-1)*9/10], Max: s[len(s)-1]}
}

// Condition is one scenario × fault level cell of the sweep.
type Condition struct {
	Scenario string `json:"scenario"`
	Fault    string `json:"fault"`
	// Blocks is the world size; Compared how many entered the matrix
	// (measured, not sparse/failed/quarantined).
	Blocks      int `json:"blocks"`
	Compared    int `json:"compared"`
	Sparse      int `json:"sparse"`
	Errors      int `json:"errors"`
	Quarantined int `json:"quarantined"`

	Confusion Confusion `json:"confusion"`

	// ClassAgree/StrictAgree/EitherAgree/UnknownFrac are derived from the
	// matrix and denormalized for report readability and threshold checks.
	ClassAgree  float64 `json:"class_agree"`
	StrictAgree float64 `json:"strict_agree"`
	EitherAgree float64 `json:"either_agree"`
	UnknownFrac float64 `json:"unknown_frac"`

	// PhaseErrRad is the circular distance between the streaming phase
	// (re-anchored to midnight UTC) and the batch FFT phase, over blocks
	// both detectors call diurnal.
	PhaseErrRad Quantiles `json:"phase_err_rad"`
	// SleepDeltaHours is the circular distance between the two detectors'
	// sleep-UTC hour, over the same blocks.
	SleepDeltaHours Quantiles `json:"sleep_delta_hours"`
	// RoundsToStable is, per decided block, the committed-round count after
	// which the streaming class never changed again.
	RoundsToStable Quantiles `json:"rounds_to_stable"`
}

// Report is the full sweep output.
type Report struct {
	Seed        uint64      `json:"seed"`
	Blocks      int         `json:"blocks"`
	Days        int         `json:"days"`
	MinClassify int         `json:"min_classify_rounds"`
	Conditions  []Condition `json:"conditions"`
}

// Find returns the condition for (scenario, fault), or nil.
func (r *Report) Find(scenario, fault string) *Condition {
	for i := range r.Conditions {
		if r.Conditions[i].Scenario == scenario && r.Conditions[i].Fault == fault {
			return &r.Conditions[i]
		}
	}
	return nil
}

// blockOutcome is one block's replay result inside a condition.
type blockOutcome struct {
	skip        bool
	sparse      bool
	errored     bool
	quarantined bool

	batchClass  core.DiurnalClass
	streamClass serve.DiurnalClass

	bothDiurnal bool
	phaseErrRad float64
	sleepDelta  float64

	decided        bool
	roundsToStable int
}

// Run executes the sweep: every scenario measured under every fault level,
// each block's series replayed through both detectors. Deterministic for a
// given Config regardless of Workers.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	// The streaming classification floor is the engine's default: one
	// virtual day of rounds.
	minClassify := serve.NewBasis(timeseries.DefaultRound).DefaultMinClassify()
	rep := &Report{Seed: cfg.Seed, Blocks: cfg.Blocks, Days: cfg.Days, MinClassify: minClassify}
	levels := faults.SweepLevels(cfg.Seed, cfg.LossRates, cfg.RateLimits)
	for si, sc := range cfg.Scenarios {
		wc := sc.World
		wc.Blocks = cfg.Blocks
		// Decorrelate the scenario worlds without making them depend on the
		// scenario list order of the *other* scenarios.
		wc.Seed = cfg.Seed ^ (uint64(si+1) * 0x9e3779b97f4a7c15)
		w, err := world.Generate(wc)
		if err != nil {
			return nil, fmt.Errorf("agree: scenario %s: %w", sc.Name, err)
		}
		for _, lvl := range levels {
			rep.Conditions = append(rep.Conditions, runCondition(cfg, sc.Name, w, lvl, minClassify))
		}
	}
	return rep, nil
}

// runCondition measures one world under one fault level and replays every
// block through both detectors.
func runCondition(cfg Config, scenario string, w *world.World, lvl faults.Level, minClassify int) Condition {
	pcfg := core.PipelineConfig{
		Start:  analysis.DefaultStart,
		Rounds: analysis.RoundsForDays(cfg.Days),
		Seed:   cfg.Seed,
		Prober: trinocular.Config{Retry: trinocular.RetryConfig{MaxAttempts: retryAttempts}},
	}
	pl := core.NewPipeline(w.Net, pcfg)

	_, detach := faults.Attach(w.Net, lvl.Config, pcfg.Start)
	defer detach()

	ids := make([]netsim.BlockID, len(w.Blocks))
	for i, b := range w.Blocks {
		ids[i] = b.ID
	}
	outcomes := make([]blockOutcome, len(w.Blocks))
	pl.RunAll(ids, cfg.Workers, func(i int, run *core.BlockRun, err error) {
		outcomes[i] = replayBlock(pl, run, err, minClassify)
	})

	cond := Condition{Scenario: scenario, Fault: lvl.Label, Blocks: len(w.Blocks)}
	var phaseErrs, sleepDeltas, stables []float64
	for i := range outcomes {
		o := &outcomes[i]
		switch {
		case o.sparse:
			cond.Sparse++
			continue
		case o.errored:
			cond.Errors++
			continue
		case o.quarantined:
			cond.Quarantined++
			continue
		case o.skip:
			continue
		}
		cond.Compared++
		cond.Confusion.Add(o.batchClass, o.streamClass)
		if o.bothDiurnal {
			phaseErrs = append(phaseErrs, o.phaseErrRad)
			sleepDeltas = append(sleepDeltas, o.sleepDelta)
		}
		if o.decided {
			stables = append(stables, float64(o.roundsToStable))
		}
	}
	cond.ClassAgree = cond.Confusion.ClassAgree()
	cond.StrictAgree = cond.Confusion.StrictAgree()
	cond.EitherAgree = cond.Confusion.EitherAgree()
	cond.UnknownFrac = cond.Confusion.UnknownFrac()
	cond.PhaseErrRad = summarize(phaseErrs)
	cond.SleepDeltaHours = summarize(sleepDeltas)
	cond.RoundsToStable = summarize(stables)
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
		if isSparse(err) {
			o.sparse = true
		} else {
			o.errored = true
		}
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
		o.errored = true
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

// isSparse reports whether err is the prober's too-sparse refusal.
func isSparse(err error) bool { return errors.Is(err, trinocular.ErrTooSparse) }

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
