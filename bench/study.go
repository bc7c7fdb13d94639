package main

// study.go — the study-14d workload: cmd/sleepscan's code path.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sleepnet/internal/analysis"
	"sleepnet/internal/dsp"
	"sleepnet/internal/geo"
	"sleepnet/internal/metrics"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/world"
)

const (
	// studyBlocks sizes the world. ISSUE 11 sized it at 10000 (about 6 s a
	// repetition); the benchmark contract gives a run some ten seconds in
	// all, and a median needs several repetitions, so the world is a quarter
	// of that. Every per-block cost is unchanged by the cut.
	studyBlocks = 2500
	studyDays   = 14
	// goldenSeed is the seed whose study digest is committed.
	goldenSeed = 42
)

func studyWorld(seed uint64) (*world.World, error) {
	return world.Generate(world.Config{Blocks: studyBlocks, Seed: seed, OutagesPerBlockWeek: 0.15})
}

// studyConfig is cmd/sleepscan's default campaign: 14 days, prober restarts
// every 5.5 h, 3% of rounds missing and 2% duplicated. The traced run turns
// the collection artifacts off, which is what the re-enactment mirrors.
func studyConfig(seed uint64, artifacts bool) analysis.StudyConfig {
	cfg := analysis.StudyConfig{
		Days:            studyDays,
		Seed:            seed ^ 0x5ca9,
		Workers:         loadWorkers,
		RestartInterval: 5*time.Hour + 30*time.Minute,
	}
	if artifacts {
		cfg.MissingRate, cfg.DuplicateRate = 0.03, 0.02
	}
	return cfg
}

// studyJoins makes every report join cmd/sleepscan and cmd/experiments make
// over a measured study. A join that errors fails the run: the workload is
// sized so that none does.
func studyJoins(tr *tracer, w *world.World, st *analysis.Study, seed uint64) error {
	minBlocks := len(w.Blocks) / 400
	if minBlocks < 3 {
		minBlocks = 3
	}
	root := tr.begin(layAnalysisJoins)
	defer tr.end(root)

	sp := tr.begin(layJoinCountry)
	countries, regions := st.CountryTable(minBlocks), st.RegionTable()
	_, err := st.CorrelateGDP(minBlocks)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("join CorrelateGDP: %w", err)
	}
	if len(countries) == 0 || len(regions) == 0 {
		return fmt.Errorf("join CountryTable/RegionTable: empty")
	}

	sp = tr.begin(layJoinPhaseLon)
	_, err = st.PhaseVsLongitude(geo.FromWorld(w, 0.93, seed), true)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("join PhaseVsLongitude: %w", err)
	}

	sp = tr.begin(layJoinOutage)
	outages := st.OutageTable(minBlocks, true)
	_, _, err = st.OutageGDPCorrelation(minBlocks)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("join OutageGDPCorrelation: %w", err)
	}
	if len(outages) == 0 {
		return fmt.Errorf("join OutageTable: empty")
	}

	sp = tr.begin(layJoinLinkTypes)
	_, err = st.LinkTypes(seed ^ 0x11d)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("join LinkTypes: %w", err)
	}

	sp = tr.begin(layJoinANOVA)
	_, err = st.ANOVATable(minBlocks)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("join ANOVATable: %w", err)
	}

	sp = tr.begin(layJoinOther)
	_, err = st.FrequencyCDF()
	if err == nil {
		_, err = st.AllocationDateTrend(minBlocks)
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("join FrequencyCDF/AllocationDateTrend: %w", err)
	}
	return nil
}

// studyDigest is the study's identity: sha256 over (ID, sparse, class,
// phase bits, probes sent) of every block in id order.
func studyDigest(st *analysis.Study) string {
	blocks := append([]analysis.MeasuredBlock(nil), st.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Info.ID < blocks[j].Info.ID })
	h := sha256.New()
	var rec [25]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint32(rec[0:], uint32(b.Info.ID))
		rec[4] = 0
		if b.Sparse {
			rec[4] = 1
		}
		binary.LittleEndian.PutUint32(rec[5:], uint32(b.Class))
		binary.LittleEndian.PutUint64(rec[9:], math.Float64bits(b.Phase))
		binary.LittleEndian.PutUint64(rec[17:], uint64(b.ProbesSent))
		_, _ = h.Write(rec[:]) // hash.Hash.Write never returns an error
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigest reads the committed digest for the golden seed.
func goldenDigest() (string, error) {
	path := filepath.Join("bench", "golden", fmt.Sprintf("study-14d.seed%d.sha256", goldenSeed))
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("golden digest: %w", err)
	}
	return strings.TrimSpace(string(b)), nil
}

// checkStudy runs the per-repetition output checks on a measured study. The
// paper finds 11% of blocks strictly diurnal and 25% either; over seeds 1-40
// this world reads 0.112-0.136 and 0.165-0.282 (the relaxed class is the
// loose one), and the bounds leave room around that.
func checkStudy(st *analysis.Study) error {
	if n := st.ErrorCount(); n != 0 {
		return check(false, "%d blocks failed measurement (first: %s)", n, st.FirstError())
	}
	strict, either := st.DiurnalFraction()
	if err := check(strict >= 0.08 && strict <= 0.18, "strict diurnal fraction %.4f outside [0.08, 0.18]", strict); err != nil {
		return err
	}
	if err := check(either >= 0.12 && either <= 0.34, "either diurnal fraction %.4f outside [0.12, 0.34]", either); err != nil {
		return err
	}
	budget := st.ProbeBudget()
	return check(budget > 0 && budget < 20, "probing budget %.2f probes/block/hour outside the paper's (0, 20)", budget)
}

func runStudy(e env) (*result, error) {
	res := newResult()
	var w *world.World
	if err := repeatSetup(res, "setup_s", func() (err error) {
		w, err = studyWorld(e.seed)
		return err
	}); err != nil {
		return nil, err
	}
	cfg := studyConfig(e.seed, true)

	var st *analysis.Study
	rep := func() (err error) {
		if st, err = analysis.MeasureWorld(w, cfg); err != nil {
			return err
		}
		return studyJoins(nil, w, st, e.seed)
	}
	// Warm-up: fills netsim's memo tables and the FFT plan cache, and gives
	// the digest every timed repetition must reproduce.
	t0 := nanos()
	if err := rep(); err != nil {
		return nil, err
	}
	res.Phases["warmup"] = secondsSince(t0)
	want := studyDigest(st)
	if e.seed == goldenSeed {
		golden, err := goldenDigest()
		if err != nil {
			return nil, err
		}
		if err := check(want == golden, "study digest %s differs from the committed golden %s", want, golden); err != nil {
			return nil, err
		}
	}

	after := func() error {
		res.Attempted += len(st.Blocks)
		res.Failed += st.ErrorCount() + st.QuarantinedCount()
		if err := checkStudy(st); err != nil {
			return err
		}
		got := studyDigest(st)
		return check(got == want, "study digest changed between repetitions: %s then %s", want, got)
	}
	if err := timedReps(res, e.seconds, rep, after); err != nil {
		return nil, err
	}
	strict, either := st.DiurnalFraction()
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d blocks x %d rounds, digest %s", len(w.Blocks), analysis.RoundsForDays(studyDays), want[:16]),
		fmt.Sprintf("strict %.4f, either %.4f, %.3f probes/block/hour", strict, either, st.ProbeBudget()))
	return res, nil
}

func traceStudy(e env) (*result, error) {
	res := newResult()
	tr := newTracer(1 << 20)

	w, err := tracedWorld(tr, res, func() (*world.World, error) { return studyWorld(e.seed) })
	if err != nil {
		return nil, err
	}

	// The real pipeline, artifacts off, two workers: the reference the
	// re-enactment must reproduce and the untraced wall it is scaled by.
	cfg := studyConfig(e.seed, false)
	if _, err := analysis.MeasureWorld(w, cfg); err != nil { // warm-up
		return nil, err
	}
	t0 := nanos()
	ref, err := analysis.MeasureWorld(w, cfg)
	if err != nil {
		return nil, err
	}
	measureS := secondsSince(t0)
	res.set("analysis.measure_s", measureS)
	if err := checkStudy(ref); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = len(ref.Blocks), ref.ErrorCount()+ref.QuarantinedCount()
	res.set("trinocular.probes_per_block_hour", ref.ProbeBudget())

	// Joins, one span each, with the allocation count of the one ROADMAP flags.
	if err := studyJoins(nil, w, ref, e.seed); err != nil { // warm-up
		return nil, err
	}
	joinsFirst := len(tr.spans)
	m0 := mallocs()
	if _, err := ref.LinkTypes(e.seed ^ 0x11d); err != nil {
		return nil, err
	}
	res.set("analysis.join.linktypes_allocs", float64(mallocs()-m0))
	if err := studyJoins(tr, w, ref, e.seed); err != nil {
		return nil, err
	}
	joins := aggregate(tr.spans, joinsFirst)
	res.set("analysis.joins_s", seconds(joins[layAnalysisJoins].Total))
	res.set("analysis.join.linktypes_s", seconds(joins[layJoinLinkTypes].Total))
	res.set("analysis.join.country_s", seconds(joins[layJoinCountry].Total))
	res.set("analysis.join.phase_lon_s", seconds(joins[layJoinPhaseLon].Total))
	res.set("analysis.join.outage_s", seconds(joins[layJoinOutage].Total))
	res.set("analysis.join.anova_s", seconds(joins[layJoinANOVA].Total))

	// The traced drive, with the FFT counter of the public dsp registry on
	// for the traced passes' benefit (it counts both passes; halve it).
	reg := metrics.New()
	dsp.SetMetrics(reg)
	dr, err := drive(tr, w.Net, blockIDs(w), enactConfig{
		start:  analysis.DefaultStart,
		rounds: analysis.RoundsForDays(studyDays),
		seed:   cfg.Seed,
		prober: ref.Cfg.Prober,
	})
	dsp.SetMetrics(nil)
	if err != nil {
		return nil, err
	}
	if err := matchStudy(dr.blocks, ref); err != nil {
		return nil, err
	}
	dr.layerMetrics(tr, res)
	res.set("dsp.fft_calls", float64(reg.Snapshot().Counter("dsp.fft_calls"))/2)
	res.set("dsp.plan_cache_size", float64(dsp.PlanCacheSize()))
	fftNS, err := fftCost()
	if err != nil {
		return nil, err
	}
	res.set("dsp.fft_ns_per_series", fftNS)
	res.set("analysis.scaling_eff", seconds(dr.tracedNS)/(loadWorkers*measureS))

	res.Phases["drive"] = seconds(dr.tracedNS + dr.bareNS)
	res.Notes = append(res.Notes, fmt.Sprintf("re-enactment matched core.Pipeline.RunBlocks on all %d blocks (class, phase bits, probes sent)", len(dr.blocks)))
	return res, writeSpans(e.spans, "study-14d", tr.spans)
}

// matchStudy checks the re-enactment block for block against the study the
// real pipeline measured: same sparse set, class, phase bits, probe count.
func matchStudy(got []enacted, ref *analysis.Study) error {
	if err := check(len(got) == len(ref.Blocks), "re-enactment measured %d blocks, pipeline %d", len(got), len(ref.Blocks)); err != nil {
		return err
	}
	bad := 0
	for i, b := range ref.Blocks {
		g := got[i]
		if g.id != b.Info.ID || g.sparse != b.Sparse || g.class != b.Class ||
			math.Float64bits(g.phase) != math.Float64bits(b.Phase) || g.probes != b.ProbesSent {
			bad++
		}
	}
	return check(bad == 0, "re-enactment disagrees with core.Pipeline.RunBlocks on %d of %d blocks", bad, len(got))
}

// fftCost times one real-input FFT at the study's trimmed series length:
// the median over batches of the mean cost per call.
func fftCost() (float64, error) {
	rounds := analysis.RoundsForDays(studyDays)
	trimmed, err := timeseries.TrimToMidnightUTC(timeseries.New(analysis.DefaultStart, timeseries.DefaultRound, make([]float64, rounds)))
	if err != nil {
		return 0, fmt.Errorf("fft cost: %w", err)
	}
	n := trimmed.Len()
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/131)
	}
	plan, scratch := dsp.PlanFor(n), dsp.NewScratch()
	var dst []complex128
	const batches, calls = 7, 200
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := nanos()
		for i := 0; i < calls; i++ {
			dst = plan.RealForward(dst, x, scratch)
		}
		per = append(per, float64(nanos()-t0)/calls)
	}
	return median(per), nil
}
