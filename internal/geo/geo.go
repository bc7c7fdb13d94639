// Package geo is the geolocation substrate: a MaxMind-style database
// mapping /24 blocks to (latitude, longitude, country), with the two
// imperfections the paper calls out — incomplete coverage (93% of blocks
// geolocate) and country-centroid placement when only the country is known
// (the Fig 12 anomaly) — plus the 2°x2° world-grid aggregation behind
// Figures 12 and 13.
package geo

import (
	"fmt"
	"math"
	"sort"

	"sleepnet/internal/netsim"
	"sleepnet/internal/prf"
	"sleepnet/internal/world"
)

// Entry is one database record.
type Entry struct {
	ID      netsim.BlockID
	Lat     float64
	Lon     float64
	Country string // ISO code
	// CountryOnly marks records whose coordinates are the country centroid.
	CountryOnly bool
}

// DB is an immutable, sorted block-to-location database.
type DB struct {
	entries []Entry // sorted by ID
}

// Build creates a database from entries (copied and sorted).
func Build(entries []Entry) *DB {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	return &DB{entries: es}
}

// Lookup finds the record for a block.
func (db *DB) Lookup(id netsim.BlockID) (Entry, bool) {
	i := sort.Search(len(db.entries), func(i int) bool { return db.entries[i].ID >= id })
	if i < len(db.entries) && db.entries[i].ID == id {
		return db.entries[i], true
	}
	return Entry{}, false
}

// FromWorld derives the geolocation database the measurement side consumes
// from ground truth, keeping only a coverage fraction of blocks (the paper
// geolocates 93%). Which blocks are dropped is deterministic in the seed.
func FromWorld(w *world.World, coverage float64, seed uint64) *DB {
	if coverage <= 0 {
		coverage = 0.93
	}
	if coverage > 1 {
		coverage = 1
	}
	entries := make([]Entry, 0, len(w.Blocks))
	for _, b := range w.Blocks {
		if prf.LegacyFloat(seed, uint64(b.ID)) >= coverage {
			continue
		}
		entries = append(entries, Entry{
			ID:          b.ID,
			Lat:         b.Lat,
			Lon:         b.Lon,
			Country:     b.Country.Code,
			CountryOnly: b.CountryCentroid,
		})
	}
	return Build(entries)
}

// Grid aggregates blocks on a regular latitude/longitude grid.
type Grid struct {
	CellDeg float64
	nx, ny  int
	total   []int // per cell
	marked  []int // per cell (e.g. diurnal)
}

// NewGrid creates a world-spanning grid with square cells of cellDeg
// degrees (the paper uses 2).
func NewGrid(cellDeg float64) (*Grid, error) {
	if cellDeg <= 0 || cellDeg > 90 {
		return nil, fmt.Errorf("geo: bad cell size %v", cellDeg)
	}
	nx := int(math.Ceil(360 / cellDeg))
	ny := int(math.Ceil(180 / cellDeg))
	return &Grid{CellDeg: cellDeg, nx: nx, ny: ny,
		total:  make([]int, nx*ny),
		marked: make([]int, nx*ny),
	}, nil
}

// Dims returns the grid dimensions (cells in longitude, latitude).
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// cellIndex maps coordinates to a cell, clamping the poles/antimeridian.
func (g *Grid) cellIndex(lat, lon float64) int {
	x := int((lon + 180) / g.CellDeg)
	y := int((lat + 90) / g.CellDeg)
	if x < 0 {
		x = 0
	}
	if x >= g.nx {
		x = g.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.ny {
		y = g.ny - 1
	}
	return y*g.nx + x
}

// Add records a block at (lat, lon); marked flags membership in the
// highlighted class (diurnal, for Fig 13).
func (g *Grid) Add(lat, lon float64, marked bool) {
	i := g.cellIndex(lat, lon)
	g.total[i]++
	if marked {
		g.marked[i]++
	}
}

// NonEmptyCells returns how many cells contain at least one block.
func (g *Grid) NonEmptyCells() int {
	n := 0
	for _, c := range g.total {
		if c > 0 {
			n++
		}
	}
	return n
}

// MaxCount returns the largest per-cell count (grayscale normalization for
// Fig 12).
func (g *Grid) MaxCount() int {
	m := 0
	for _, c := range g.total {
		if c > m {
			m = c
		}
	}
	return m
}

// CellSummary describes one non-empty cell.
type CellSummary struct {
	LatCenter, LonCenter float64
	Total, Marked        int
}

// Cells lists all non-empty cells, west-to-east then south-to-north.
func (g *Grid) Cells() []CellSummary {
	var out []CellSummary
	for y := 0; y < g.ny; y++ {
		for x := 0; x < g.nx; x++ {
			i := y*g.nx + x
			if g.total[i] == 0 {
				continue
			}
			out = append(out, CellSummary{
				LonCenter: -180 + (float64(x)+0.5)*g.CellDeg,
				LatCenter: -90 + (float64(y)+0.5)*g.CellDeg,
				Total:     g.total[i],
				Marked:    g.marked[i],
			})
		}
	}
	return out
}
