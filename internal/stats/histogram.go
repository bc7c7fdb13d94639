package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample (copied and sorted).
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of the sample <= v.
func (e *ECDF) At(v float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Grid2D accumulates counts of (x, y) pairs on a fixed rectangular grid —
// the density plots of Figures 4, 5, and 14.
type Grid2D struct {
	XMin, XMax, YMin, YMax float64
	NX, NY                 int
	Counts                 [][]int // Counts[yi][xi]
}

// NewGrid2D creates an nx-by-ny grid over the given ranges.
func NewGrid2D(xmin, xmax float64, nx int, ymin, ymax float64, ny int) (*Grid2D, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("stats: grid needs positive dimensions (%d, %d)", nx, ny)
	}
	if !(xmax > xmin) || !(ymax > ymin) {
		return nil, fmt.Errorf("stats: grid needs max > min")
	}
	g := &Grid2D{XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, NX: nx, NY: ny}
	g.Counts = make([][]int, ny)
	for i := range g.Counts {
		g.Counts[i] = make([]int, nx)
	}
	return g, nil
}

// Add records one pair. Out-of-range pairs are not binned.
func (g *Grid2D) Add(x, y float64) {
	if math.IsNaN(x) || math.IsNaN(y) || x < g.XMin || x >= g.XMax || y < g.YMin || y >= g.YMax {
		return
	}
	xi := int(float64(g.NX) * (x - g.XMin) / (g.XMax - g.XMin))
	yi := int(float64(g.NY) * (y - g.YMin) / (g.YMax - g.YMin))
	if xi == g.NX {
		xi--
	}
	if yi == g.NY {
		yi--
	}
	g.Counts[yi][xi]++
}
