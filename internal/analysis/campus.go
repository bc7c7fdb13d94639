package analysis

import (
	"fmt"

	"sleepnet/internal/core"
	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// CampusResult is the §3.2.4-style ground-truth validation on a campus
// network: how many blocks the probing policy excluded as too sparse, and
// how detection fared per category against designed truth.
type CampusResult struct {
	// PerCategory maps category to its counts.
	PerCategory map[world.CampusCategory]*CampusCategoryResult
	// Excluded counts blocks below the 15-active probing floor (the
	// paper's wireless false-negative story: 119 of 142 wireless blocks).
	Excluded int
	// Measured counts probed blocks.
	Measured int
}

// CampusCategoryResult tallies one category.
type CampusCategoryResult struct {
	Total    int
	Excluded int
	Detected int // classified diurnal (strict or relaxed) among probed
	Strict   int
	Probed   int
}

// ValidateCampus measures a campus with the standard pipeline and
// cross-tabulates detection against the generator's ground truth. The
// campus is measured in one pass on a clean wire: sc's fault model and
// checkpoint fields do not apply.
func ValidateCampus(c *world.Campus, sc StudyConfig) (*CampusResult, error) {
	if err := sc.checkDays(); err != nil {
		return nil, err
	}
	pl := core.NewPipeline(c.Net, sc.pipelineConfig())
	ids := make([]netsim.BlockID, len(c.Blocks))
	for i, cb := range c.Blocks {
		ids[i] = cb.ID
	}
	classes := make([]core.DiurnalClass, len(ids))
	errs := make([]error, len(ids))
	pl.RunAll(ids, sc.Workers, func(i int, run *core.BlockRun, err error) {
		if err == nil {
			var dr core.DiurnalResult
			dr, err = pl.Classify(run)
			classes[i] = dr.Class
		}
		errs[i] = err
	})
	res := &CampusResult{PerCategory: make(map[world.CampusCategory]*CampusCategoryResult)}
	for i, err := range errs {
		cat := res.PerCategory[c.Blocks[i].Category]
		if cat == nil {
			cat = &CampusCategoryResult{}
			res.PerCategory[c.Blocks[i].Category] = cat
		}
		cat.Total++
		switch {
		case err != nil && isSparse(err):
			cat.Excluded++
			res.Excluded++
		case err != nil:
			return nil, err
		default:
			cat.Probed++
			res.Measured++
			if classes[i].IsDiurnal() {
				cat.Detected++
			}
			if classes[i] == core.StrictDiurnal {
				cat.Strict++
			}
		}
	}
	if res.Measured == 0 {
		return nil, fmt.Errorf("analysis: no campus blocks measured")
	}
	return res, nil
}

// WirelessExclusionRate returns the fraction of wireless blocks the sparse
// policy removed from probing (paper: 119/142 ≈ 84%).
func (r *CampusResult) WirelessExclusionRate() float64 {
	w := r.PerCategory[world.CampusWireless]
	if w == nil || w.Total == 0 {
		return 0
	}
	return float64(w.Excluded) / float64(w.Total)
}
