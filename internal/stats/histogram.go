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

// ColumnQuantiles bins pairs by x-column group and returns, for each of the
// groups of width (XMax-XMin)/groups, the requested quantiles of the y
// values in that column — the white quartile boxes overlaid on Figures 4–5.
// Columns with no data yield NaN rows.
func ColumnQuantiles(xs, ys []float64, xmin, xmax float64, groups int, qs ...float64) ([][]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: ColumnQuantiles length mismatch")
	}
	if groups <= 0 || !(xmax > xmin) {
		return nil, fmt.Errorf("stats: ColumnQuantiles bad grouping")
	}
	buckets := make([][]float64, groups)
	for i, x := range xs {
		if math.IsNaN(x) || x < xmin || x > xmax {
			continue
		}
		gi := int(float64(groups) * (x - xmin) / (xmax - xmin))
		if gi == groups {
			gi--
		}
		buckets[gi] = append(buckets[gi], ys[i])
	}
	out := make([][]float64, groups)
	for i, b := range buckets {
		row := make([]float64, len(qs))
		if len(b) == 0 {
			for j := range row {
				row[j] = math.NaN()
			}
		} else {
			sort.Float64s(b)
			copy(row, QuantilesSorted(b, qs...))
		}
		out[i] = row
	}
	return out, nil
}
