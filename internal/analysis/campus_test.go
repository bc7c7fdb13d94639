package analysis

import (
	"testing"

	"sleepnet/internal/metrics"
	"sleepnet/internal/world"
)

func TestCampusGeneration(t *testing.T) {
	c, err := world.GenerateCampus(world.CampusConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Blocks) != 142+32+120 {
		t.Fatalf("blocks = %d", len(c.Blocks))
	}
	counts := map[world.CampusCategory]int{}
	for _, b := range c.Blocks {
		counts[b.Category]++
		if c.Net.Block(b.ID) == nil {
			t.Fatalf("block %s missing from network", b.ID)
		}
	}
	if counts[world.CampusWireless] != 142 || counts[world.CampusDynamic] != 32 {
		t.Fatalf("category counts = %v", counts)
	}
	if counts[world.CampusGeneralPocket] == 0 {
		t.Fatal("no pocket blocks generated")
	}
	if _, err := world.GenerateCampus(world.CampusConfig{Wireless: 1 << 20}); err == nil {
		t.Fatal("oversized campus should error")
	}
}

func TestCampusValidation(t *testing.T) {
	c, err := world.GenerateCampus(world.CampusConfig{
		Wireless: 60, Dynamic: 16, General: 60, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	res, err := ValidateCampus(c, StudyConfig{Days: 14, Seed: 9, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The campus run is configured like any study: the registry sees it.
	if got := reg.Snapshot().Counter("pipeline.blocks_measured"); got != int64(res.Measured) {
		t.Fatalf("pipeline.blocks_measured = %d, want the %d measured blocks", got, res.Measured)
	}
	// The paper's §3.2.4 structural findings:
	// 1. Most wireless blocks are excluded by the 15-active probing floor.
	if rate := res.WirelessExclusionRate(); rate < 0.3 {
		t.Fatalf("wireless exclusion rate = %v, want most excluded", rate)
	}
	// 2. Dense dynamic pools are detected as diurnal at a high rate.
	detectionRate := func(cat world.CampusCategory) float64 {
		c := res.PerCategory[cat]
		if c == nil || c.Probed == 0 {
			t.Fatalf("no %v blocks probed", cat)
		}
		return float64(c.Detected) / float64(c.Probed)
	}
	if rate := detectionRate(world.CampusDynamic); rate < 0.8 {
		t.Fatalf("dynamic detection rate = %v", rate)
	}
	// 3. Pure general-use blocks are not diurnal...
	if rate := detectionRate(world.CampusGeneral); rate > 0.25 {
		t.Fatalf("general-use diurnal rate = %v, want low", rate)
	}
	// 4. ...but pockets of dynamic addresses make general-use blocks
	// diurnal (the paper's surprise).
	if rate := detectionRate(world.CampusGeneralPocket); rate < 0.5 {
		t.Fatalf("pocket detection rate = %v, want high", rate)
	}
	// 5. Probed wireless blocks (the densest ones) are detected only
	// sometimes — sparse diurnal populations are hard (Fig 7).
	w := res.PerCategory[world.CampusWireless]
	if w.Probed == 0 {
		t.Fatal("no wireless blocks probed at all")
	}
	if res.Excluded == 0 || res.Measured == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestCampusDegenerateAccessors(t *testing.T) {
	r := &CampusResult{PerCategory: map[world.CampusCategory]*CampusCategoryResult{}}
	if r.WirelessExclusionRate() != 0 {
		t.Fatal("empty result accessors should be 0")
	}
}
