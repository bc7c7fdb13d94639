package world

import (
	"testing"
	"time"
)

func TestGenerateCampusDefaults(t *testing.T) {
	c, err := GenerateCampus(CampusConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[CampusCategory]int{}
	wirelessBelowFloor := 0
	for _, b := range c.Blocks {
		counts[b.Category]++
		blk := c.Net.Block(b.ID)
		if blk == nil {
			t.Fatalf("block %s not registered", b.ID)
		}
		if got := len(blk.EverActive()); got != b.ActiveAddrs {
			t.Fatalf("block %s ActiveAddrs %d != network E(b) %d", b.ID, b.ActiveAddrs, got)
		}
		if b.Category == CampusWireless && b.ActiveAddrs < 15 {
			wirelessBelowFloor++
		}
		switch b.Category {
		case CampusWireless, CampusDynamic, CampusGeneralPocket:
			if !b.TrulyDiurnal {
				t.Fatalf("%s block should be truly diurnal", b.Category)
			}
		case CampusGeneral:
			if b.TrulyDiurnal {
				t.Fatal("pure general block should not be diurnal")
			}
		}
	}
	if counts[CampusWireless] != 142 || counts[CampusDynamic] != 32 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[CampusGeneral]+counts[CampusGeneralPocket] != 120 {
		t.Fatalf("general total = %d", counts[CampusGeneral]+counts[CampusGeneralPocket])
	}
	// A meaningful share of wireless blocks sits below the probing floor.
	if wirelessBelowFloor < 30 {
		t.Fatalf("only %d wireless blocks below the 15-active floor", wirelessBelowFloor)
	}
}

func TestGenerateCampusDiurnalBehavior(t *testing.T) {
	c, err := GenerateCampus(CampusConfig{Wireless: 1, Dynamic: 1, General: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic pool block: availability swings between near zero at local
	// night and high during the local (LA) day.
	var dyn *CampusBlock
	for _, b := range c.Blocks {
		if b.Category == CampusDynamic {
			dyn = b
		}
	}
	if dyn == nil {
		t.Fatal("no dynamic block")
	}
	blk := c.Net.Block(dyn.ID)
	epoch := time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC)
	// LA noon = 20:00 UTC; LA 3am = 11:00 UTC.
	day := blk.TrueA(epoch.Add(20 * time.Hour))
	night := blk.TrueA(epoch.Add(11 * time.Hour))
	if !(day > 0.8 && night < 0.2) {
		t.Fatalf("dynamic pool day=%v night=%v, want strong diurnal swing in LA time", day, night)
	}
}

func TestGenerateCampusErrors(t *testing.T) {
	if _, err := GenerateCampus(CampusConfig{Wireless: 1 << 20}); err == nil {
		t.Fatal("oversized campus should error")
	}
}

func TestInjectOutages(t *testing.T) {
	w, err := Generate(Config{Blocks: 300, Seed: 7, OutagesPerBlockWeek: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	horizon := time.Date(2013, time.April, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 70)
	for _, info := range w.Blocks {
		blk := w.Net.Block(info.ID)
		total += len(blk.Outages)
		for _, iv := range blk.Outages {
			if !iv.End.After(iv.Start) {
				t.Fatalf("block %s has empty outage interval", info.ID)
			}
			if iv.Start.After(horizon) {
				t.Fatalf("block %s outage beyond horizon", info.ID)
			}
			dur := iv.End.Sub(iv.Start)
			if dur < 20*time.Minute || dur > 49*time.Hour {
				t.Fatalf("outage duration %v out of range", dur)
			}
		}
	}
	// 300 blocks x 10 weeks x ~0.5/wk x GDP multiplier: expect hundreds.
	if total < 300 {
		t.Fatalf("only %d outages injected", total)
	}
	// Poorer countries get more outages per block.
	rate := func(code string) float64 {
		blocks := countryBlocks(w, code)
		if len(blocks) == 0 {
			return -1
		}
		n := 0
		for _, info := range blocks {
			n += len(w.Net.Block(info.ID).Outages)
		}
		return float64(n) / float64(len(blocks))
	}
	us, cn := rate("US"), rate("CN")
	if us < 0 || cn < 0 {
		t.Fatal("missing populations")
	}
	if !(us < cn) {
		t.Fatalf("US outage rate %v should be below CN %v", us, cn)
	}
	// Zero rate injects nothing.
	w2, err := Generate(Config{Blocks: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range w2.Blocks {
		if len(w2.Net.Block(info.ID).Outages) != 0 {
			t.Fatal("outages injected with zero rate")
		}
	}
}

func TestLeaseCycleBlocksExist(t *testing.T) {
	w, err := Generate(Config{Blocks: 4000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// ~2% of non-diurnal blocks cycle with a DHCP lease period; find at
	// least a few, and see their availability repeat with that period.
	lease := 0
	for _, info := range w.Blocks {
		if info.LeasePeriod == 0 {
			continue
		}
		lease++
		blk := w.Net.Block(info.ID)
		at := time.Date(2013, time.April, 3, 1, 0, 0, 0, time.UTC)
		for i := 0; i < 40; i++ {
			at = at.Add(37 * time.Minute)
			if a, b := blk.TrueA(at), blk.TrueA(at.Add(info.LeasePeriod)); a != b {
				t.Fatalf("%s: A(%v) = %v but %v one lease period later", info.ID, at, a, b)
			}
		}
	}
	if lease < 10 {
		t.Fatalf("only %d lease-cycle blocks in 4000", lease)
	}
	frac := float64(lease) / float64(len(w.Blocks))
	if frac > 0.05 {
		t.Fatalf("lease-cycle fraction = %v, want ~0.02", frac)
	}
}
