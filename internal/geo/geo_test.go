package geo

import (
	"math"
	"testing"

	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

func TestBuildAndLookup(t *testing.T) {
	entries := []Entry{
		{ID: netsim.MakeBlockID(2, 0, 0), Lat: 10, Lon: 20, Country: "AA"},
		{ID: netsim.MakeBlockID(1, 0, 0), Lat: -5, Lon: 30, Country: "BB"},
	}
	db := Build(entries)
	if len(db.entries) != 2 {
		t.Fatalf("%d records", len(db.entries))
	}
	e, ok := db.Lookup(netsim.MakeBlockID(1, 0, 0))
	if !ok || e.Country != "BB" || e.Lat != -5 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	if _, ok := db.Lookup(netsim.MakeBlockID(9, 9, 9)); ok {
		t.Fatal("missing block should not resolve")
	}
}

func TestFromWorldCoverage(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	db := FromWorld(w, 0.93, 5)
	frac := float64(len(db.entries)) / float64(len(w.Blocks))
	if math.Abs(frac-0.93) > 0.02 {
		t.Fatalf("coverage = %v, want ~0.93", frac)
	}
	// Full coverage.
	full := FromWorld(w, 1, 5)
	if len(full.entries) != len(w.Blocks) {
		t.Fatalf("full coverage = %d of %d", len(full.entries), len(w.Blocks))
	}
	// Entries agree with ground truth.
	for _, b := range w.Blocks[:50] {
		e, ok := full.Lookup(b.ID)
		if !ok {
			t.Fatalf("block %s missing at full coverage", b.ID)
		}
		if e.Country != b.Country.Code || e.Lat != b.Lat || e.Lon != b.Lon {
			t.Fatalf("entry %+v != block %+v", e, b)
		}
	}
	// Default coverage when 0 passed.
	def := FromWorld(w, 0, 5)
	if math.Abs(float64(len(def.entries))/float64(len(w.Blocks))-0.93) > 0.02 {
		t.Fatal("default coverage should be 0.93")
	}
}

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := g.Dims()
	if nx != 180 || ny != 90 {
		t.Fatalf("dims = %d x %d", nx, ny)
	}
	g.Add(34.0, -118.2, true)  // Los Angeles, diurnal
	g.Add(34.5, -118.9, false) // same 2x2 cell
	g.Add(35.6, 139.7, false)  // Tokyo
	la, tokyo := g.cellIndex(34.3, -118.5), g.cellIndex(35.6, 139.7)
	if g.total[la] != 2 || g.marked[la] != 1 {
		t.Fatalf("LA cell holds %d blocks, %d marked", g.total[la], g.marked[la])
	}
	if g.total[tokyo] != 1 || g.marked[tokyo] != 0 {
		t.Fatalf("Tokyo cell holds %d blocks, %d marked", g.total[tokyo], g.marked[tokyo])
	}
	if empty := g.cellIndex(0, 0); g.total[empty] != 0 {
		t.Fatal("cell at the origin should be empty")
	}
	if g.NonEmptyCells() != 2 {
		t.Fatalf("non-empty cells = %d", g.NonEmptyCells())
	}
	if g.MaxCount() != 2 {
		t.Fatalf("MaxCount = %d", g.MaxCount())
	}
	cells := g.Cells()
	if len(cells) != 2 {
		t.Fatalf("Cells = %d", len(cells))
	}
	// LA cell center: lon bucket of -118.2 -> [-120,-118) center -119.
	if cells[0].LonCenter != -119 && cells[1].LonCenter != -119 {
		t.Fatalf("cells = %+v", cells)
	}
}

func TestGridEdgeClamping(t *testing.T) {
	g, err := NewGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly on the antimeridian and poles must not panic.
	g.Add(90, 180, false)
	g.Add(-90, -180, false)
	g.Add(91, 181, false) // out of range clamps
	if g.NonEmptyCells() != 2 {
		t.Fatalf("cells = %d", g.NonEmptyCells())
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(0); err == nil {
		t.Fatal("zero cell should error")
	}
	if _, err := NewGrid(120); err == nil {
		t.Fatal("oversize cell should error")
	}
}

func TestGridCentroidAnomalyVisible(t *testing.T) {
	// Country-centroid blocks pile into one cell: the Fig 12 artifact.
	w, err := world.Generate(world.Config{Blocks: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	db := FromWorld(w, 1, 1)
	us := world.CountryByCode("US")
	for _, b := range w.Blocks {
		e, ok := db.Lookup(b.ID)
		if !ok {
			continue
		}
		g.Add(e.Lat, e.Lon, false)
	}
	// The US centroid cell should be disproportionately full relative to a
	// typical uniformly-populated US cell (~7% of ~1400 US blocks pile onto
	// one cell).
	centroidCount := g.total[g.cellIndex(us.CenterLat(), us.CenterLon())]
	if centroidCount < 30 {
		t.Fatalf("centroid cell only has %d blocks", centroidCount)
	}
}
