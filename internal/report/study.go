package report

import (
	"fmt"

	"sleepnet/internal/analysis"
	"sleepnet/internal/geo"
	"sleepnet/internal/stats"
	"sleepnet/internal/world"
)

// The paper's §5 tables of a measured study. cmd/experiments' table3,
// table4, fig14, fig16, fig17 and outages artifacts and sleepscan's report
// print these, so one study gets one rendering. Each returns its text,
// caption first, and the analysis result the registry's claims read; every
// seed and floor inside is derived from the study's world.

// CountryFloor is the fewest measured blocks a country needs for a row of
// the country, GDP, allocation, ANOVA and outage tables: the paper's
// 1000-block floor scaled to the world, one in 400 of its blocks and at
// least 3.
func CountryFloor(st *analysis.Study) int {
	return max(len(st.Blocks)/400, 3)
}

// GeoDB is the geolocation database of w that Figs 12-14 place blocks
// with: 93% of blocks located, seeded from the world's seed.
func GeoDB(w *world.World) *geo.DB {
	return geo.FromWorld(w, 0.93, w.Config.Seed^0x9e0)
}

// Table3 renders the countries by strictly diurnal fraction, top 20 plus the
// US, with 95% Wilson intervals. It returns every country above the floor.
func Table3(st *analysis.Study) (string, []analysis.CountryRow) {
	rows := st.CountryTable(CountryFloor(st))
	out := [][]string{}
	for i, r := range rows {
		if i >= 20 && r.Code != "US" {
			continue
		}
		lo, hi := stats.WilsonInterval(r.Diurnal, r.Blocks, 0.95)
		out = append(out, []string{
			r.Code, r.Region, fmt.Sprint(r.Blocks), F(r.FracDiurnal),
			fmt.Sprintf("[%.3f, %.3f]", lo, hi),
			fmt.Sprintf("%.0f", r.GDP),
		})
	}
	return "Table 3: fraction of diurnal blocks by country (top 20 + US)\n" +
		Table([]string{"country", "region", "blocks", "frac diurnal", "95% CI", "GDP (US$)"}, out), rows
}

// Table4 renders the regions by strictly diurnal fraction.
func Table4(st *analysis.Study) (string, []analysis.RegionRow) {
	rows := st.RegionTable()
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Region, fmt.Sprint(r.Blocks), F(r.FracDiurnal)})
	}
	return "Table 4: fraction of diurnal blocks by region\n" +
		Table([]string{"region", "blocks", "frac diurnal"}, out), rows
}

// Fig14 renders the correlation of diurnal phase with longitude, for the
// strictly diurnal blocks and for either class, and the longitude the
// either-class predictor gives for selected phases.
func Fig14(st *analysis.Study) (text string, strict, relaxed *analysis.PhaseLongitude, err error) {
	db := GeoDB(st.World)
	if strict, err = st.PhaseVsLongitude(db, false); err != nil {
		return "", nil, nil, err
	}
	if relaxed, err = st.PhaseVsLongitude(db, true); err != nil {
		return "", nil, nil, err
	}
	text = fmt.Sprintf("Fig 14: diurnal phase vs longitude\n"+
		"(a) strict diurnal:  %d blocks, unrolled-phase/longitude r = %.3f (paper: 0.835)\n"+
		"(b) either diurnal:  %d blocks, r = %.3f (paper: 0.763)\n"+
		"(c) longitude predicted from phase (selected phases):\n",
		strict.Blocks, strict.R, relaxed.Blocks, relaxed.R)
	rows := [][]string{}
	for _, ph := range []float64{-3, -2, -1, 0, 1, 2, 3} {
		lon, sd, ok := relaxed.PredictLongitude(ph)
		if !ok {
			rows = append(rows, []string{F(ph), "n/a", "n/a"})
			continue
		}
		rows = append(rows, []string{F(ph), fmt.Sprintf("%.0f°", lon), fmt.Sprintf("±%.0f°", sd)})
	}
	return text + Table([]string{"phase (rad)", "mean lon", "stddev"}, rows), strict, relaxed, nil
}

// Fig16 renders the correlation of the countries' diurnal fraction with
// their per-capita GDP, and the twelve most diurnal countries.
func Fig16(st *analysis.Study) (string, *analysis.GDPCorrelation, error) {
	res, err := st.CorrelateGDP(CountryFloor(st))
	if err != nil {
		return "", nil, err
	}
	var labels []string
	var vals []float64
	for _, r := range res.Rows[:min(len(res.Rows), 12)] {
		labels = append(labels, fmt.Sprintf("%s ($%.0fk)", r.Code, r.GDP/1000))
		vals = append(vals, r.FracDiurnal)
	}
	return fmt.Sprintf("Fig 16: diurnal fraction vs per-capita GDP by country\n"+
		"countries: %d; correlation: %.3f (paper: -0.526)\nfit: frac = %.4f %+.3g * GDP\n",
		len(res.Rows), res.R, res.Fit.Intercept, res.Fit.Slope) + BarChart(labels, vals, 50), res, nil
}

// Fig17 renders the strictly diurnal fraction per access-link keyword of
// the blocks' reverse names, with the share of blocks that have any.
func Fig17(st *analysis.Study) (string, *analysis.LinkTypeResult, error) {
	res, err := st.LinkTypes(st.World.Config.Seed ^ 0x11d)
	if err != nil {
		return "", nil, err
	}
	var labels []string
	var vals []float64
	for _, r := range res.Rows {
		labels = append(labels, fmt.Sprintf("%s (n=%d)", r.Keyword, r.Blocks))
		vals = append(vals, r.FracDiurnal)
	}
	return fmt.Sprintf("Fig 17: fraction of diurnal blocks per access-link keyword\n"+
		"blocks with features: %s (paper: 46.3%%); multiple features: %s (paper: 11.4%%)\n",
		Pct(res.ClassifiedFrac), Pct(res.MultiFrac)) + BarChart(labels, vals, 50), res, nil
}

// Outages renders the fifteen least reliable countries, diurnal blocks
// excluded so sleep is not counted as outage, and the correlation of their
// outage rate with per-capita GDP (paper §7).
func Outages(st *analysis.Study) (string, float64, stats.ANOVAResult, error) {
	floor := CountryFloor(st)
	r, anova, err := st.OutageGDPCorrelation(floor)
	if err != nil {
		return "", 0, stats.ANOVAResult{}, err
	}
	all := st.OutageTable(floor, true)
	rows := [][]string{}
	for _, row := range all[:min(len(all), 15)] {
		rows = append(rows, []string{
			row.Code, fmt.Sprint(row.Blocks), fmt.Sprintf("%.3f", row.EpisodesPerBlockWeek),
			row.Agg.NinesString(), fmt.Sprintf("%.0f", row.GDP),
		})
	}
	return "Extension: outage rates vs economics (paper §7)\n" +
		Table([]string{"country", "blocks", "outages/blk-week", "uptime", "GDP"}, rows) +
		fmt.Sprintf("outage rate vs GDP: r = %.3f, ANOVA p = %s\n", r, F(anova.P)), r, anova, nil
}
