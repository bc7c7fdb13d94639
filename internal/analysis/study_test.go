package analysis

import (
	"math"
	"sync"
	"testing"

	"sleepnet/internal/core"
	"sleepnet/internal/geo"
	"sleepnet/internal/world"
)

// Shared fixtures: one generated world measured once, reused by the
// experiment tests (measurement dominates test cost).
var (
	fixtureOnce  sync.Once
	fixtureWorld *world.World
	fixtureStudy *Study
	fixtureGeo   *geo.DB
	fixtureErr   error
)

func sharedStudy(t *testing.T) (*world.World, *Study, *geo.DB) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureWorld, fixtureErr = world.Generate(world.Config{Blocks: 1200, Seed: 31})
		if fixtureErr != nil {
			return
		}
		fixtureStudy, fixtureErr = MeasureWorld(fixtureWorld, StudyConfig{Days: 14, Seed: 77})
		if fixtureErr != nil {
			return
		}
		fixtureGeo = geo.FromWorld(fixtureWorld, 0.93, 3)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureWorld, fixtureStudy, fixtureGeo
}

func TestMeasureWorldBasics(t *testing.T) {
	w, st, _ := sharedStudy(t)
	if len(st.Blocks) != len(w.Blocks) {
		t.Fatalf("blocks = %d, want %d", len(st.Blocks), len(w.Blocks))
	}
	m := st.Measured()
	if len(m) < len(w.Blocks)*8/10 {
		t.Fatalf("only %d of %d measured", len(m), len(w.Blocks))
	}
	for _, b := range st.Blocks {
		if b.ErrMsg != "" {
			t.Fatalf("block %s failed: %v", b.Info.ID, b.ErrMsg)
		}
	}
	counts := st.CountByClass()
	if counts[core.StrictDiurnal] == 0 || counts[core.NonDiurnal] == 0 {
		t.Fatalf("degenerate class counts: %v", counts)
	}
}

func TestStudyDetectsDesignedDiurnals(t *testing.T) {
	_, st, _ := sharedStudy(t)
	var tp, fn, fpStrict, nonDesigned int
	for _, b := range st.Measured() {
		if b.Info.DesignedDiurnal {
			if b.Class.IsDiurnal() {
				tp++
			} else {
				fn++
			}
		} else {
			nonDesigned++
			if b.Class == core.StrictDiurnal {
				fpStrict++
			}
		}
	}
	recall := float64(tp) / float64(tp+fn)
	if recall < 0.8 {
		t.Fatalf("recall vs design = %v (tp=%d fn=%d)", recall, tp, fn)
	}
	// Strict detection must almost never fire on non-diurnal blocks; the
	// relaxed class is intentionally loose (the paper's Fig 10 shows ~25%
	// of blocks peak at 1 c/d while only 11% pass the strict test), so it
	// is not held to a false-positive bound here.
	fpr := float64(fpStrict) / float64(nonDesigned)
	if fpr > 0.02 {
		t.Fatalf("strict false positive rate vs design = %v", fpr)
	}
}

func TestStudyFractionsInPaperBallpark(t *testing.T) {
	_, st, _ := sharedStudy(t)
	strict, either := st.DiurnalFraction()
	// The paper reports 11% strict and 25% either at full scale; our scaled
	// world encodes the same country mix, so the strict fraction should
	// land in the same regime.
	if strict < 0.05 || strict > 0.30 {
		t.Fatalf("strict fraction = %v", strict)
	}
	if either < strict {
		t.Fatalf("either %v < strict %v", either, strict)
	}
}

func TestProbeBudgetUnderTwenty(t *testing.T) {
	_, st, _ := sharedStudy(t)
	rate := st.ProbeBudget()
	if rate <= 0 || rate >= 20 {
		t.Fatalf("probe budget = %v probes/block/hour, want (0, 20)", rate)
	}
}

func TestSelectBlocksAndSortedCodes(t *testing.T) {
	_, st, _ := sharedStudy(t)
	us := 0
	for _, b := range st.Measured() {
		if b.Info.Country.Code == "US" {
			us++
		}
	}
	if us == 0 {
		t.Fatal("no US blocks")
	}
	codes := st.sortedCountryCodes()
	if len(codes) < 10 {
		t.Fatalf("codes = %v", codes)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			t.Fatal("codes not sorted")
		}
	}
}

func TestMeasureWorldEmpty(t *testing.T) {
	if _, err := MeasureWorld(&world.World{}, StudyConfig{}); err == nil {
		t.Fatal("empty world should error")
	}
}

func TestRoundsForDays(t *testing.T) {
	if got := RoundsForDays(14); got != 14*86400/660+60 {
		t.Fatalf("RoundsForDays = %d", got)
	}
}

func TestCountryTableShape(t *testing.T) {
	_, st, _ := sharedStudy(t)
	rows := st.CountryTable(5)
	if len(rows) < 10 {
		t.Fatalf("only %d countries", len(rows))
	}
	// Sorted descending.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].FracDiurnal < rows[i].FracDiurnal {
			t.Fatal("rows not sorted")
		}
	}
	// The US must be near the bottom, high-diurnal countries near the top.
	pos := map[string]int{}
	for i, r := range rows {
		pos[r.Code] = i
	}
	if usPos, cnPos := pos["US"], pos["CN"]; usPos < cnPos {
		t.Fatalf("US (pos %d) should rank below CN (pos %d)", usPos, cnPos)
	}
	// Countries below the floor are excluded.
	for _, r := range rows {
		if r.Blocks < 5 {
			t.Fatalf("row %s has %d blocks below floor", r.Code, r.Blocks)
		}
	}
}

func TestRegionTableShape(t *testing.T) {
	_, st, _ := sharedStudy(t)
	rows := st.RegionTable()
	if len(rows) < 10 {
		t.Fatalf("only %d regions", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].FracDiurnal > rows[i].FracDiurnal {
			t.Fatal("regions not sorted ascending")
		}
	}
	// Northern America must be among the least diurnal; Asia among the most.
	fr := map[string]float64{}
	for _, r := range rows {
		fr[r.Region] = r.FracDiurnal
	}
	if fr[world.RegionNorthernAmerica] > fr[world.RegionEasternAsia] {
		t.Fatalf("N.America %v should be below E.Asia %v",
			fr[world.RegionNorthernAmerica], fr[world.RegionEasternAsia])
	}
}

func TestGDPCorrelationNegative(t *testing.T) {
	_, st, _ := sharedStudy(t)
	res, err := st.CorrelateGDP(5)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: confidence coefficient -0.526 (weak but clearly negative).
	if res.R > -0.3 {
		t.Fatalf("GDP correlation = %v, want clearly negative", res.R)
	}
	if res.Fit.Slope >= 0 {
		t.Fatalf("slope = %v, want negative", res.Fit.Slope)
	}
	if _, err := st.CorrelateGDP(1 << 30); err == nil {
		t.Fatal("impossible floor should error")
	}
}

func TestANOVATableGDPStrongest(t *testing.T) {
	_, st, _ := sharedStudy(t)
	tab, err := st.ANOVATable(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Names) != 5 {
		t.Fatalf("factors = %v", tab.Names)
	}
	// GDP is factor 0; its single-factor p-value should be significant, as
	// in the paper (6.6e-8 at full scale).
	if p := tab.P[0][0]; p > 0.05 {
		t.Fatalf("GDP p = %v, want significant", p)
	}
	// Symmetry of pairs.
	for i := range tab.P {
		for j := range tab.P {
			if tab.P[i][j] != tab.P[j][i] {
				t.Fatal("table not symmetric")
			}
		}
	}
	if _, err := st.ANOVATable(1 << 30); err == nil {
		t.Fatal("impossible floor should error")
	}
}

func TestPhaseVsLongitude(t *testing.T) {
	_, st, db := sharedStudy(t)
	res, err := st.PhaseVsLongitude(db, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks < 30 {
		t.Fatalf("only %d strict diurnal geolocated blocks", res.Blocks)
	}
	// Paper: r = 0.835 strict. Accept anything strongly positive.
	if res.R < 0.5 {
		t.Fatalf("phase-longitude r = %v, want > 0.5", res.R)
	}
	relaxed, err := st.PhaseVsLongitude(db, true)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Blocks < res.Blocks {
		t.Fatal("relaxed population should be at least as large")
	}
	// Predictor: most phases with data predict with finite uncertainty.
	ok := 0
	for i := 0; i < 100; i++ {
		phase := -3.1 + 6.2*float64(i)/100
		if _, _, hasData := res.PredictLongitude(phase); hasData {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("predictor has no populated bins")
	}
}

func TestUnrollPhase(t *testing.T) {
	cases := []struct{ phase, lon, want float64 }{
		{0, 0, 0},
		{3, 0, 3},
		{-3, 3, 2*3.141592653589793 - 3},
	}
	for _, c := range cases {
		got := UnrollPhase(c.phase, c.lon)
		if got < c.lon-3.15 || got >= c.lon+3.15 {
			t.Fatalf("UnrollPhase(%v, %v) = %v outside window", c.phase, c.lon, got)
		}
	}
}

func TestAllocationDateTrendPositive(t *testing.T) {
	_, st, _ := sharedStudy(t)
	res, err := st.AllocationDateTrend(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Months) < 5 {
		t.Fatalf("only %d months", len(res.Months))
	}
	// Paper: +0.08%/month with r = 0.609. Require positive slope and
	// positive correlation.
	if res.Fit.Slope <= 0 {
		t.Fatalf("allocation trend slope = %v, want positive", res.Fit.Slope)
	}
	if res.Fit.R < 0.2 {
		t.Fatalf("allocation trend r = %v, want positive", res.Fit.R)
	}
	if _, err := st.AllocationDateTrend(1 << 30); err == nil {
		t.Fatal("impossible floor should error")
	}
}

func TestLinkTypesDynMostDiurnal(t *testing.T) {
	_, st, _ := sharedStudy(t)
	res, err := st.LinkTypes(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassifiedFrac < 0.35 || res.ClassifiedFrac > 0.6 {
		t.Fatalf("classified fraction = %v, want ~0.46", res.ClassifiedFrac)
	}
	frac := map[string]float64{}
	for _, r := range res.Rows {
		frac[r.Keyword] = r.FracDiurnal
	}
	// The Fig 17 ordering: dynamic most diurnal, dialup near zero, dsl in
	// between.
	if !(frac["dyn"] > frac["dsl"]) {
		t.Fatalf("dyn %v should exceed dsl %v", frac["dyn"], frac["dsl"])
	}
	if !(frac["dsl"] > frac["dial"]) {
		t.Fatalf("dsl %v should exceed dial %v", frac["dsl"], frac["dial"])
	}
}

func TestFrequencyCDFDailyPeak(t *testing.T) {
	_, st, _ := sharedStudy(t)
	res, err := st.FrequencyCDF()
	if err != nil {
		t.Fatal(err)
	}
	strict, either := st.DiurnalFraction()
	_ = either
	// Every strict-diurnal block has its strongest frequency at 1 c/d, so
	// the daily mass must be at least the strict fraction.
	if res.FracDaily < strict {
		t.Fatalf("daily mass %v < strict fraction %v", res.FracDaily, strict)
	}
	// CDF sanity: mass below 0 cycles/day is none; everything below an
	// absurdly high frequency.
	if res.CDF.At(-0.01) != 0 {
		t.Fatal("negative frequencies impossible")
	}
	if res.CDF.At(100) != 1 {
		t.Fatal("CDF should reach 1")
	}
}

func TestBuildWorldMaps(t *testing.T) {
	_, st, db := sharedStudy(t)
	maps, err := st.BuildWorldMaps(db)
	if err != nil {
		t.Fatal(err)
	}
	if maps.Geolocated < 800 {
		t.Fatalf("geolocated = %d", maps.Geolocated)
	}
	if maps.Counts.NonEmptyCells() < 20 {
		t.Fatalf("non-empty cells = %d", maps.Counts.NonEmptyCells())
	}
	// Sanity: a cell in the continental US should exist and be lightly
	// diurnal relative to a Chinese cell (aggregate check over countries
	// instead of single cells to avoid sparse-cell noise).
	usCells, cnCells := 0, 0
	var usDiurnal, cnDiurnal, usTotal, cnTotal int
	for _, c := range maps.Counts.Cells() {
		switch {
		case c.LonCenter > -125 && c.LonCenter < -66 && c.LatCenter > 25 && c.LatCenter < 49:
			usCells++
			usTotal += c.Total
			usDiurnal += c.Marked
		case c.LonCenter > 74 && c.LonCenter < 131 && c.LatCenter > 19 && c.LatCenter < 48:
			cnCells++
			cnTotal += c.Total
			cnDiurnal += c.Marked
		}
	}
	if usCells == 0 || cnCells == 0 {
		t.Fatalf("cells: us=%d cn=%d", usCells, cnCells)
	}
	usFrac := float64(usDiurnal) / float64(usTotal)
	cnFrac := float64(cnDiurnal) / float64(cnTotal)
	if usFrac >= cnFrac {
		t.Fatalf("US diurnal fraction %v should be far below China-region %v", usFrac, cnFrac)
	}
}

func TestLocalPeakHourCalibration(t *testing.T) {
	// Designed diurnal blocks wake at LocalOnHour and stay up ~9h, so the
	// activity peak sits near LocalOnHour + 4.5. The phase-derived local
	// peak must recover that within a couple of hours on average.
	_, st, db := sharedStudy(t)
	var errSum float64
	n := 0
	for _, b := range st.Measured() {
		if b.Class != core.StrictDiurnal || !b.Info.DesignedDiurnal {
			continue
		}
		e, ok := db.Lookup(b.Info.ID)
		if !ok {
			continue
		}
		got := math.Mod(UTCPeakHour(b.Phase)+e.Lon/15+24, 24) // local solar time at the block's longitude
		want := b.Info.LocalOnHour + 4.5
		d := got - want
		for d > 12 {
			d -= 24
		}
		for d < -12 {
			d += 24
		}
		if d < 0 {
			d = -d
		}
		errSum += d
		n++
	}
	if n < 20 {
		t.Fatalf("only %d calibratable blocks", n)
	}
	mean := errSum / float64(n)
	if mean > 2.5 {
		t.Fatalf("mean |local peak error| = %.2f h over %d blocks, want <= 2.5", mean, n)
	}
	t.Logf("mean local-peak error: %.2f h over %d blocks", mean, n)
}

func TestUTCPeakHourRange(t *testing.T) {
	for _, ph := range []float64{-3.14, -1, 0, 1, 3.14, 6, -6} {
		h := UTCPeakHour(ph)
		if h < 0 || h >= 24 {
			t.Fatalf("UTCPeakHour(%v) = %v", ph, h)
		}
	}
}

func TestGDPCorrelationWeighted(t *testing.T) {
	_, st, _ := sharedStudy(t)
	res, err := st.CorrelateGDP(5)
	if err != nil {
		t.Fatal(err)
	}
	// Weighting by block count should not flip the sign, and with the US
	// and CN dominating the weights it is typically at least as strong.
	if res.RWeighted >= 0 {
		t.Fatalf("weighted correlation = %v, want negative", res.RWeighted)
	}
}
