package analysis

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sleepnet/internal/core"
	"sleepnet/internal/geo"
	"sleepnet/internal/rdns"
	"sleepnet/internal/stats"
	"sleepnet/internal/world"
)

// --- Fig 10: distribution of the strongest frequency ---

// FrequencyDistribution is the Fig 10 result: the empirical CDF of the
// strongest periodicity (cycles/day) across blocks, plus the mass near the
// interesting frequencies.
type FrequencyDistribution struct {
	CDF *stats.ECDF
	// FracDaily is the mass within ±tolerance of 1 cycle/day.
	FracDaily float64
	// FracRestartArtifact is the mass near 24/5.5 ≈ 4.36 cycles/day, the
	// prober-restart artifact.
	FracRestartArtifact float64
}

// FrequencyCDF computes Fig 10 over the study's measured blocks.
func (s *Study) FrequencyCDF() (*FrequencyDistribution, error) {
	m := s.Measured()
	if len(m) == 0 {
		return nil, fmt.Errorf("analysis: no measured blocks")
	}
	vals := make([]float64, 0, len(m))
	var daily, restart int
	restartCPD := 24.0 / 5.5
	for _, b := range m {
		v := b.StrongestCPD
		vals = append(vals, v)
		if math.Abs(v-1) <= 0.15 {
			daily++
		}
		if math.Abs(v-restartCPD) <= 0.3 {
			restart++
		}
	}
	return &FrequencyDistribution{
		CDF:                 stats.NewECDF(vals),
		FracDaily:           float64(daily) / float64(len(m)),
		FracRestartArtifact: float64(restart) / float64(len(m)),
	}, nil
}

// --- Fig 11: long-term trend over surveys ---

// TrendPoint is one survey in Fig 11.
type TrendPoint struct {
	Date        time.Time
	Site        string // w, c, or j
	FracDiurnal float64
	Blocks      int
}

// LongTermTrend reproduces Fig 11: a sequence of survey-scale measurements
// over several years, with the world's dynamic-address share drifting so
// the diurnal fraction declines after 2012 as the paper observed. Each
// survey samples blocksPerSurvey blocks.
func LongTermTrend(surveys int, blocksPerSurvey int, seed uint64) ([]TrendPoint, error) {
	if surveys <= 0 || blocksPerSurvey <= 0 {
		return nil, fmt.Errorf("analysis: need positive surveys and blocks")
	}
	sites := []string{"w", "c", "j"}
	startDate := time.Date(2009, time.December, 1, 0, 0, 0, 0, time.UTC)
	out := make([]TrendPoint, 0, surveys)
	for i := 0; i < surveys; i++ {
		// Surveys every ~3 weeks across the span.
		date := startDate.AddDate(0, 0, i*21)
		// The underlying diurnal propensity: roughly flat through 2012,
		// declining afterwards (dynamic addresses shifting to always-on).
		years := date.Sub(startDate).Hours() / 24 / 365
		mult := 1.0
		if date.After(time.Date(2012, time.June, 1, 0, 0, 0, 0, time.UTC)) {
			mult = 1.0 - 0.12*(years-2.5)
		}
		if mult < 0.5 {
			mult = 0.5
		}
		w, err := generateScaledWorld(blocksPerSurvey, seed+uint64(i)*7919, mult)
		if err != nil {
			return nil, err
		}
		st, err := MeasureWorld(w, StudyConfig{Days: 14, Seed: seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		strict, _ := st.DiurnalFraction()
		out = append(out, TrendPoint{
			Date:        date,
			Site:        sites[i%len(sites)],
			FracDiurnal: strict,
			Blocks:      len(st.Measured()),
		})
	}
	return out, nil
}

// generateScaledWorld builds a world whose country diurnal fractions are
// scaled by mult (used by the long-term trend).
func generateScaledWorld(blocks int, seed uint64, mult float64) (*world.World, error) {
	saved := make([]float64, len(world.Countries))
	for i := range world.Countries {
		saved[i] = world.Countries[i].DiurnalFrac
		f := world.Countries[i].DiurnalFrac * mult
		if f > 0.95 {
			f = 0.95
		}
		world.Countries[i].DiurnalFrac = f
	}
	defer func() {
		for i := range world.Countries {
			world.Countries[i].DiurnalFrac = saved[i]
		}
	}()
	return world.Generate(world.Config{Blocks: blocks, Seed: seed})
}

// --- Figs 12, 13: world maps ---

// WorldMaps holds the Fig 12 (counts) and Fig 13 (percent diurnal) grids.
type WorldMaps struct {
	Counts *geo.Grid
	// Geolocated counts how many measured blocks resolved in the database.
	Geolocated int
}

// BuildWorldMaps aggregates the study onto a 2°x2° grid through the
// geolocation database; the same grid answers both Fig 12 (totals) and
// Fig 13 (marked fraction = strictly diurnal).
func (s *Study) BuildWorldMaps(db *geo.DB) (*WorldMaps, error) {
	g, err := geo.NewGrid(2)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, b := range s.Measured() {
		e, ok := db.Lookup(b.Info.ID)
		if !ok {
			continue
		}
		n++
		g.Add(e.Lat, e.Lon, b.Class == core.StrictDiurnal)
	}
	if n == 0 {
		return nil, fmt.Errorf("analysis: nothing geolocated")
	}
	return &WorldMaps{Counts: g, Geolocated: n}, nil
}

// --- Fig 15: allocation-date trend ---

// AllocationTrend is the Fig 15 result.
type AllocationTrend struct {
	// Months are month offsets (x) and Frac the diurnal fraction (y) for
	// months with data.
	Months []time.Time
	Frac   []float64
	Blocks []int
	// Fit is the linear regression of percent-diurnal against month index
	// (paper: slope ≈ +0.08%/month, r ≈ 0.609).
	Fit stats.LinearFit
}

// AllocationDateTrend reproduces Fig 15: diurnal fraction of blocks grouped
// by their /8's allocation month. Months with fewer than minBlocks blocks
// are skipped.
func (s *Study) AllocationDateTrend(minBlocks int) (*AllocationTrend, error) {
	type agg struct{ n, d int }
	byMonth := make(map[string]*agg)
	monthDate := make(map[string]time.Time)
	for _, b := range s.Measured() {
		t := b.Info.AllocDate
		key := fmt.Sprintf("%04d-%02d", t.Year(), int(t.Month()))
		a := byMonth[key]
		if a == nil {
			a = &agg{}
			byMonth[key] = a
			monthDate[key] = time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
		}
		a.n++
		if b.Class == core.StrictDiurnal {
			a.d++
		}
	}
	keys := make([]string, 0, len(byMonth))
	for k, a := range byMonth {
		if a.n >= minBlocks {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		return nil, fmt.Errorf("analysis: only %d allocation months with >= %d blocks", len(keys), minBlocks)
	}
	sort.Strings(keys)
	out := &AllocationTrend{}
	var xs, ys []float64
	epoch := monthDate[keys[0]]
	for _, k := range keys {
		a := byMonth[k]
		frac := float64(a.d) / float64(a.n)
		out.Months = append(out.Months, monthDate[k])
		out.Frac = append(out.Frac, frac)
		out.Blocks = append(out.Blocks, a.n)
		months := monthDate[k].Sub(epoch).Hours() / 24 / 30.44
		xs = append(xs, months)
		ys = append(ys, frac*100) // percent, like the paper's slope units
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return nil, err
	}
	out.Fit = fit
	return out, nil
}

// --- Fig 17: link technology ---

// LinkTypeRow is one bar of Fig 17.
type LinkTypeRow struct {
	Keyword     string
	Blocks      int
	FracDiurnal float64
}

// LinkTypeResult is the Fig 17 outcome plus the §2.3.3 coverage stats.
type LinkTypeResult struct {
	Rows []LinkTypeRow
	// ClassifiedFrac is the fraction of blocks with at least one feature
	// (paper: 46.3% at full scale; the study's synthesizer matches).
	ClassifiedFrac float64
	// MultiFrac is the fraction with multiple features (paper: 11.4%).
	MultiFrac float64
}

// LinkTypes reproduces Fig 17: classify every measured block's reverse
// names, then compute the strictly-diurnal fraction per kept keyword.
func (s *Study) LinkTypes(seed uint64) (*LinkTypeResult, error) {
	m := s.Measured()
	if len(m) == 0 {
		return nil, fmt.Errorf("analysis: no measured blocks")
	}
	synth := rdns.NewSynthesizer(seed)
	// Blocks and strictly diurnal blocks per keyword, indexed like
	// rdns.ConsideredKeywords.
	n := make([]int, len(rdns.ConsideredKeywords))
	d := make([]int, len(rdns.ConsideredKeywords))
	domains := make(map[string]string) // organisation -> rdns.Domain
	var scratch []byte
	classified, multi := 0, 0
	for _, b := range m {
		domain, ok := domains[b.Info.OrgName]
		if !ok {
			domain = rdns.Domain(b.Info.OrgName)
			domains[b.Info.OrgName] = domain
		}
		var feats rdns.FeatureSet
		feats, scratch = synth.BlockFeatures(scratch, b.Info.ID, b.Info.LinkType, domain)
		if feats != 0 {
			classified++
		}
		if feats.Len() > 1 {
			multi++
		}
		for i := range n {
			if feats.Has(i) {
				n[i]++
				if b.Class == core.StrictDiurnal {
					d[i]++
				}
			}
		}
	}
	out := &LinkTypeResult{
		ClassifiedFrac: float64(classified) / float64(len(m)),
		MultiFrac:      float64(multi) / float64(len(m)),
	}
	// A block's features are kept keywords only, so walking
	// ConsideredKeywords lists them in Fig 17's row order.
	for i, kw := range rdns.ConsideredKeywords {
		if n[i] == 0 {
			continue
		}
		out.Rows = append(out.Rows, LinkTypeRow{
			Keyword:     kw,
			Blocks:      n[i],
			FracDiurnal: float64(d[i]) / float64(n[i]),
		})
	}
	return out, nil
}

// --- Table 2: cross-site comparison ---

// CrossSite is the Table 2 result: the 3x3 cross-tabulation of
// {strict, either, non} between two vantage points.
type CrossSite struct {
	// M[i][j]: i indexes site A's class (0 strict, 1 either, 2 non),
	// j site B's. "Either" counts strict+relaxed, so M is not a partition:
	// like the paper's Table 2, row "d" is a subset of row "e".
	M [3][3]int
	// StrongDisagree is the fraction of site-A strict blocks that site B
	// calls non-diurnal (paper: ~1.2%).
	StrongDisagree float64
}

// CompareSites reproduces Table 2 between two studies of the same world
// (different vantage points = different probing seeds and paths).
func CompareSites(a, b *Study) (*CrossSite, error) {
	if a.World != b.World {
		return nil, fmt.Errorf("analysis: studies must share a world")
	}
	classOf := func(st *Study) map[uint32]core.DiurnalClass {
		out := make(map[uint32]core.DiurnalClass)
		for _, mb := range st.Measured() {
			out[uint32(mb.Info.ID)] = mb.Class
		}
		return out
	}
	ca, cb := classOf(a), classOf(b)
	var cs CrossSite
	idx := func(c core.DiurnalClass) []int {
		switch c {
		case core.StrictDiurnal:
			return []int{0, 1} // strict is also "either"
		case core.RelaxedDiurnal:
			return []int{1}
		default:
			return []int{2}
		}
	}
	var strictA, strictANonB int
	for id, clsA := range ca {
		clsB, ok := cb[id]
		if !ok {
			continue
		}
		for _, i := range idx(clsA) {
			for _, j := range idx(clsB) {
				cs.M[i][j]++
			}
		}
		if clsA == core.StrictDiurnal {
			strictA++
			if clsB == core.NonDiurnal {
				strictANonB++
			}
		}
	}
	if strictA > 0 {
		cs.StrongDisagree = float64(strictANonB) / float64(strictA)
	}
	return &cs, nil
}

// ConsensusResult summarizes a majority-vote classification across several
// vantage points — the natural use of the paper's three sites (Los Angeles,
// Colorado, Keio): blocks are labelled strictly diurnal only when a
// majority of sites agree, trading a little recall for precision.
type ConsensusResult struct {
	// Strict maps block id to consensus strictness for blocks measured at
	// a majority of sites.
	Strict map[uint32]bool
	// FlippedFromFirst counts blocks whose consensus differs from the
	// first site's verdict.
	FlippedFromFirst int
	// Blocks is the consensus population size.
	Blocks int
}

// ConsensusClassify majority-votes strict-diurnal verdicts across studies
// of the same world. At least two studies are required.
func ConsensusClassify(studies ...*Study) (*ConsensusResult, error) {
	if len(studies) < 2 {
		return nil, fmt.Errorf("analysis: consensus needs >= 2 studies, got %d", len(studies))
	}
	for _, st := range studies[1:] {
		if st.World != studies[0].World {
			return nil, fmt.Errorf("analysis: studies must share a world")
		}
	}
	votes := make(map[uint32][2]int) // id -> {strictVotes, totalVotes}
	first := make(map[uint32]bool)
	for si, st := range studies {
		for _, mb := range st.Measured() {
			id := uint32(mb.Info.ID)
			v := votes[id]
			v[1]++
			if mb.Class == core.StrictDiurnal {
				v[0]++
				if si == 0 {
					first[id] = true
				}
			}
			votes[id] = v
		}
	}
	res := &ConsensusResult{Strict: make(map[uint32]bool)}
	majority := len(studies)/2 + 1
	for id, v := range votes {
		if v[1] < majority {
			continue // not measured at enough sites
		}
		strict := v[0] >= majority
		res.Strict[id] = strict
		res.Blocks++
		if strict != first[id] {
			res.FlippedFromFirst++
		}
	}
	return res, nil
}

// CompareSiteFrequencies strengthens Table 2 distributionally: a two-sample
// Kolmogorov-Smirnov test over the strongest-frequency samples of both
// vantage points. Measurement location should not change the frequency
// distribution, so a high p-value is the expected outcome.
func CompareSiteFrequencies(a, b *Study) (stats.KSResult, error) {
	if a.World != b.World {
		return stats.KSResult{}, fmt.Errorf("analysis: studies must share a world")
	}
	sample := func(st *Study) []float64 {
		m := st.Measured()
		out := make([]float64, 0, len(m))
		for _, mb := range m {
			out = append(out, mb.StrongestCPD)
		}
		return out
	}
	return stats.KSTest(sample(a), sample(b))
}
