package analysis

import (
	"fmt"
	"sort"
	"time"

	"sleepnet/internal/outage"
	"sleepnet/internal/stats"
	"sleepnet/internal/timeseries"
	"sleepnet/internal/world"
)

// OutageRow aggregates reliability for one country.
type OutageRow struct {
	Code   string
	Blocks int
	// Agg pools all block summaries (uptime weighted by rounds).
	Agg outage.Summary
	// EpisodesPerBlockWeek normalizes outage counts by population and
	// measurement length.
	EpisodesPerBlockWeek float64
	GDP                  float64
}

// OutageTable aggregates detected outages per country (countries with at
// least minBlocks measured blocks), sorted by descending outage rate —
// the reliability companion to Table 3.
//
// When excludeDiurnal is true, diurnal blocks are dropped first. This is
// the methodologically sound setting — a sleeping network looks exactly
// like an outage to a belief-based detector, and one application the paper
// names (§5.6) is using diurnal classifications to calibrate outage and
// availability measurements. With excludeDiurnal false the table shows the
// raw, sleep-confounded rates.
func (s *Study) OutageTable(minBlocks int, excludeDiurnal bool) []OutageRow {
	byCountry := make(map[string][]outage.Summary)
	for _, b := range s.Measured() {
		if excludeDiurnal && b.Class.IsDiurnal() {
			continue
		}
		code := b.Info.Country.Code
		byCountry[code] = append(byCountry[code], b.Outage)
	}
	weeks := float64(s.Cfg.Rounds) * timeseries.DefaultRound.Hours() / (24 * 7)
	var rows []OutageRow
	for _, code := range s.sortedCountryCodes() {
		sums := byCountry[code]
		if len(sums) < minBlocks {
			continue
		}
		agg := outage.Merge(sums)
		row := OutageRow{
			Code:   code,
			Blocks: len(sums),
			Agg:    agg,
			GDP:    world.CountryByCode(code).GDP,
		}
		if weeks > 0 {
			row.EpisodesPerBlockWeek = float64(agg.Episodes) / float64(len(sums)) / weeks
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		//lint:allow floateq: exact tie-break inside a comparator; epsilon equality would break strict weak ordering
		if rows[i].EpisodesPerBlockWeek != rows[j].EpisodesPerBlockWeek {
			return rows[i].EpisodesPerBlockWeek > rows[j].EpisodesPerBlockWeek
		}
		return rows[i].Code < rows[j].Code
	})
	return rows
}

// OutageGDPCorrelation correlates the per-country outage rate with
// per-capita GDP — the §7 claim that outages, like diurnalness, track
// economics (negative correlation expected: richer, fewer outages).
// Diurnal blocks are always excluded here so nightly sleep is not counted
// as unreliability.
func (s *Study) OutageGDPCorrelation(minBlocks int) (float64, stats.ANOVAResult, error) {
	rows := s.OutageTable(minBlocks, true)
	if len(rows) < 5 {
		return 0, stats.ANOVAResult{}, fmt.Errorf("analysis: only %d countries for outage correlation", len(rows))
	}
	gdp := make([]float64, len(rows))
	rate := make([]float64, len(rows))
	for i, r := range rows {
		gdp[i] = r.GDP
		rate[i] = r.EpisodesPerBlockWeek
	}
	r := stats.Pearson(gdp, rate)
	res, err := stats.RegressionANOVA(rate, gdp)
	if err != nil {
		return r, stats.ANOVAResult{}, err
	}
	return r, res, nil
}

// CensusPoint is one sample of the active-address census.
type CensusPoint struct {
	Time time.Time
	// Active is the number of responding public addresses at this instant.
	Active float64
	// ActiveNonDiurnal is the contribution of blocks the generator designed
	// as non-diurnal, isolating the diurnal swing.
	ActiveNonDiurnal float64
}

// AddressCensus estimates "the size of the Internet in active addresses"
// over time (§5.6): the total number of responding addresses across the
// world's blocks, sampled every step. A single snapshot is representative
// only for non-diurnal blocks; the census shows the daily swing that
// diurnal blocks contribute, which is why snapshot scans must be calibrated
// with diurnal classifications.
func AddressCensus(w *world.World, start time.Time, duration, step time.Duration) ([]CensusPoint, error) {
	if duration <= 0 || step <= 0 {
		return nil, fmt.Errorf("analysis: census needs positive duration and step")
	}
	n := int(duration / step)
	if n == 0 {
		return nil, fmt.Errorf("analysis: census step exceeds duration")
	}
	out := make([]CensusPoint, 0, n)
	for i := 0; i < n; i++ {
		ts := start.Add(time.Duration(i) * step)
		pt := CensusPoint{Time: ts}
		for _, info := range w.Blocks {
			blk := w.Net.Block(info.ID)
			if blk == nil {
				continue
			}
			up, _ := blk.TrueCounts(ts)
			pt.Active += float64(up)
			if !info.DesignedDiurnal {
				pt.ActiveNonDiurnal += float64(up)
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// CensusSwing summarizes a census: daily mean, minimum, and maximum of the
// active-address count, and the swing fraction (max-min)/mean.
type CensusSwing struct {
	Mean, Min, Max float64
	SwingFraction  float64
}

// SummarizeCensus computes the swing statistics of a census series.
func SummarizeCensus(pts []CensusPoint) (CensusSwing, error) {
	if len(pts) == 0 {
		return CensusSwing{}, fmt.Errorf("analysis: empty census")
	}
	s := CensusSwing{Min: pts[0].Active, Max: pts[0].Active}
	for _, p := range pts {
		s.Mean += p.Active
		if p.Active < s.Min {
			s.Min = p.Active
		}
		if p.Active > s.Max {
			s.Max = p.Active
		}
	}
	s.Mean /= float64(len(pts))
	if s.Mean > 0 {
		s.SwingFraction = (s.Max - s.Min) / s.Mean
	}
	return s, nil
}
