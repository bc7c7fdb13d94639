package analysis

import (
	"fmt"
	"math"

	"sleepnet/internal/core"
	"sleepnet/internal/geo"
	"sleepnet/internal/stats"
)

// UnrollPhase maps a raw FFT phase into the window [-pi + L, pi + L), where
// L is the block's longitude in radians — the paper's trick for comparing
// two circular quantities (§5.2): instead of a fixed branch cut at ±pi, the
// cut follows the longitude, so phases of eastern and western blocks stay
// comparable.
func UnrollPhase(phase, lonRadians float64) float64 {
	for phase < lonRadians-math.Pi {
		phase += 2 * math.Pi
	}
	for phase >= lonRadians+math.Pi {
		phase -= 2 * math.Pi
	}
	return phase
}

// PhaseLongitude is the Fig 14 result.
type PhaseLongitude struct {
	// Grid is the unrolled-phase (y) vs longitude (x) density, 100x100 bins
	// as in the paper.
	Grid *stats.Grid2D
	// R is the correlation of unrolled phase against longitude
	// (paper: 0.835 strict, 0.763 relaxed).
	R float64
	// Blocks is the population size.
	Blocks int
	// Predictor maps 100 phase bins to the mean and standard deviation of
	// longitude in each bin (Fig 14c); empty bins hold NaN.
	PredictorMean, PredictorStd [100]float64
}

// PhaseVsLongitude reproduces Fig 14 for the study's diurnal blocks:
// strict-only (Fig 14a) or strict+relaxed (Fig 14b), geolocated through the
// given database.
func (s *Study) PhaseVsLongitude(db *geo.DB, includeRelaxed bool) (*PhaseLongitude, error) {
	grid, err := stats.NewGrid2D(-180, 180, 100, -math.Pi-math.Pi/9, math.Pi+2*math.Pi+math.Pi/9, 100)
	if err != nil {
		return nil, err
	}
	var lons, phases []float64
	type binAgg struct {
		sum, sumsq float64
		n          int
	}
	var bins [100]binAgg
	for _, b := range s.Measured() {
		switch b.Class {
		case core.StrictDiurnal:
		case core.RelaxedDiurnal:
			if !includeRelaxed {
				continue
			}
		default:
			continue
		}
		e, ok := db.Lookup(b.Info.ID)
		if !ok {
			continue
		}
		lonRad := e.Lon * math.Pi / 180
		up := UnrollPhase(b.Phase, lonRad)
		grid.Add(e.Lon, up)
		lons = append(lons, e.Lon)
		phases = append(phases, up)
		// Predictor bins use the raw phase folded to [-pi, pi).
		raw := math.Mod(b.Phase+3*math.Pi, 2*math.Pi) - math.Pi
		bi := int((raw + math.Pi) / (2 * math.Pi) * 100)
		if bi < 0 {
			bi = 0
		}
		if bi > 99 {
			bi = 99
		}
		bins[bi].sum += e.Lon
		bins[bi].sumsq += e.Lon * e.Lon
		bins[bi].n++
	}
	if len(lons) < 3 {
		return nil, fmt.Errorf("analysis: only %d geolocated diurnal blocks", len(lons))
	}
	out := &PhaseLongitude{Grid: grid, Blocks: len(lons), R: stats.Pearson(phases, lons)}
	for i := range bins {
		if bins[i].n == 0 {
			out.PredictorMean[i] = math.NaN()
			out.PredictorStd[i] = math.NaN()
			continue
		}
		mean := bins[i].sum / float64(bins[i].n)
		out.PredictorMean[i] = mean
		variance := bins[i].sumsq/float64(bins[i].n) - mean*mean
		if variance < 0 {
			variance = 0
		}
		out.PredictorStd[i] = math.Sqrt(variance)
	}
	return out, nil
}

// PredictLongitude estimates a block's longitude from its diurnal phase
// using the Fig 14c predictor, returning the mean and the uncertainty
// (stddev) of the matching phase bin. ok is false for phases with no
// training data.
func (p *PhaseLongitude) PredictLongitude(phase float64) (lon, sd float64, ok bool) {
	raw := math.Mod(phase+3*math.Pi, 2*math.Pi) - math.Pi
	bi := int((raw + math.Pi) / (2 * math.Pi) * 100)
	if bi < 0 {
		bi = 0
	}
	if bi > 99 {
		bi = 99
	}
	if math.IsNaN(p.PredictorMean[bi]) {
		return 0, 0, false
	}
	return p.PredictorMean[bi], p.PredictorStd[bi], true
}
