package world

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestCountryTableConsistency(t *testing.T) {
	seen := make(map[string]bool)
	for i := range Countries {
		c := &Countries[i]
		if seen[c.Code] {
			t.Errorf("duplicate country %s", c.Code)
		}
		seen[c.Code] = true
		if c.GDP <= 0 || c.ElecPerCapita <= 0 || c.UsersPerHost <= 0 {
			t.Errorf("%s: non-positive covariates", c.Code)
		}
		if !(c.LonMax > c.LonMin) || !(c.LatMax > c.LatMin) {
			t.Errorf("%s: degenerate bounding box", c.Code)
		}
		if c.LonMin < -180 || c.LonMax > 180 || c.LatMin < -90 || c.LatMax > 90 {
			t.Errorf("%s: bounding box out of range", c.Code)
		}
		if c.DiurnalFrac < 0 || c.DiurnalFrac > 1 {
			t.Errorf("%s: DiurnalFrac %v", c.Code, c.DiurnalFrac)
		}
		if c.BlockWeight <= 0 {
			t.Errorf("%s: weight %v", c.Code, c.BlockWeight)
		}
		if c.FirstAllocYear < 1983 || c.FirstAllocYear > 2010 {
			t.Errorf("%s: alloc year %d", c.Code, c.FirstAllocYear)
		}
	}
	// All 16 paper regions present.
	if got := len(Regions()); got != 16 {
		t.Fatalf("regions = %d, want 16", got)
	}
}

func TestPaperTable3ValuesPreserved(t *testing.T) {
	// Spot-check countries whose diurnal fraction the paper reports.
	cases := map[string]float64{
		"AM": 0.630, "CN": 0.498, "US": 0.002, "RU": 0.159, "BR": 0.185, "KZ": 0.400,
	}
	for code, want := range cases {
		c := CountryByCode(code)
		if c == nil {
			t.Fatalf("missing country %s", code)
		}
		if c.DiurnalFrac != want {
			t.Errorf("%s DiurnalFrac = %v, want %v", code, c.DiurnalFrac, want)
		}
	}
	if CountryByCode("XX") != nil {
		t.Fatal("unknown code should be nil")
	}
}

func TestGDPDiurnalAnticorrelationInTable(t *testing.T) {
	// The table must encode the paper's central finding: high diurnal
	// fraction goes with low GDP. Check a rank-style statistic.
	var lowGDPFracSum, highGDPFracSum float64
	var nLow, nHigh int
	for i := range Countries {
		c := &Countries[i]
		if c.GDP < 12000 {
			lowGDPFracSum += c.DiurnalFrac
			nLow++
		}
		if c.GDP > 35000 {
			highGDPFracSum += c.DiurnalFrac
			nHigh++
		}
	}
	lo := lowGDPFracSum / float64(nLow)
	hi := highGDPFracSum / float64(nHigh)
	if lo < 5*hi {
		t.Fatalf("low-GDP mean frac %v should dwarf high-GDP %v", lo, hi)
	}
}

func TestLinkMixFor(t *testing.T) {
	us := CountryByCode("US")
	bd := CountryByCode("BD")
	mixUS := LinkMixFor(us)
	mixBD := LinkMixFor(bd)
	sum := 0.0
	for _, m := range mixUS {
		sum += m
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("US mix sums to %v", sum)
	}
	// Poor countries use more dynamic addressing; rich more cable.
	idxDyn, idxCable := 1, 7
	if !(mixBD[idxDyn] > mixUS[idxDyn]) {
		t.Fatalf("dyn: BD %v vs US %v", mixBD[idxDyn], mixUS[idxDyn])
	}
	if !(mixUS[idxCable] > mixBD[idxCable]) {
		t.Fatalf("cable: US %v vs BD %v", mixUS[idxCable], mixBD[idxCable])
	}
}

func TestLinkDiurnalMultiplier(t *testing.T) {
	if !(LinkDiurnalMultiplier(LinkDynamic) > LinkDiurnalMultiplier(LinkDSL)) {
		t.Fatal("dyn should exceed dsl")
	}
	if !(LinkDiurnalMultiplier(LinkDSL) > LinkDiurnalMultiplier(LinkDialup)) {
		t.Fatal("dsl should exceed dial")
	}
	if LinkDiurnalMultiplier("unknown") != 1 {
		t.Fatal("unknown multiplier should be 1")
	}
}

func TestGenerateBasics(t *testing.T) {
	w, err := Generate(Config{Blocks: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Blocks) < 1400 || len(w.Blocks) > 1700 {
		t.Fatalf("generated %d blocks, want ~1500", len(w.Blocks))
	}
	if n := len(w.Net.BlockIDs()); n != len(w.Blocks) {
		t.Fatalf("network has %d blocks, info has %d", n, len(w.Blocks))
	}
	// Every block consistent.
	for _, b := range w.Blocks {
		if w.ByID[b.ID] != b {
			t.Fatalf("ByID inconsistent for %s", b.ID)
		}
		if b.Country == nil || b.OrgName == "" || b.ASN == 0 || b.LinkType == "" {
			t.Fatalf("incomplete block %+v", b)
		}
		if b.AllocDate.IsZero() {
			t.Fatalf("block %s has no allocation date", b.ID)
		}
		if !b.CountryCentroid {
			if b.Lon < b.Country.LonMin-1e-9 || b.Lon > b.Country.LonMax+1e-9 {
				t.Fatalf("block %s lon %v outside %s", b.ID, b.Lon, b.Country.Code)
			}
		}
		if nb := w.Net.Block(b.ID); nb == nil {
			t.Fatalf("block %s missing from network", b.ID)
		}
	}
}

// worldDigest hashes everything a generated world holds: every BlockInfo
// field, each netsim block's path loss, seed, gateway probability and
// outage intervals, its ever-active addresses, and its ground-truth answers
// (TrueCounts) at fixed instants spread over a week of the campaign.
func worldDigest(w *World) string {
	h := sha256.New()
	start := time.Date(2013, time.April, 24, 17, 18, 0, 0, time.UTC)
	for _, b := range w.Blocks {
		fmt.Fprintln(h, b.ID, b.Country.Code, b.Lat, b.Lon, b.CountryCentroid, b.ASN, b.OrgName,
			b.LinkType, b.Slash8, b.AllocDate.UnixNano(), b.DesignedDiurnal,
			b.NumStable, b.NumDiurnal, b.NumIntermittent, b.LocalOnHour, int64(b.LeasePeriod))
		blk := w.Net.Block(b.ID)
		fmt.Fprintln(h, blk.Loss, blk.Seed, blk.GatewayUnreachableProb, blk.EverActive())
		for _, iv := range blk.Outages {
			fmt.Fprintln(h, iv.Start.UnixNano(), iv.End.UnixNano())
		}
		for k := 0; k < 24; k++ {
			up, ever := blk.TrueCounts(start.Add(time.Duration(k) * (7*time.Hour + 13*time.Minute)))
			fmt.Fprintln(h, up, ever)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDeterministic pins two whole worlds to the digests they had
// when every outage schedule was drawn inline in the generator's serial
// loop: the benchmark's study shape (outage schedules on workers) and an
// outage-free world (no workers). Each must come out the same at every
// worker count.
func TestGenerateDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"study", Config{Blocks: 2500, Seed: 42, OutagesPerBlockWeek: 0.15}, "ea959336ce3b95a1f2251ba407d557b40a234930e0164add9980cbe026c54a47"},
		{"outage-free", Config{Blocks: 400, Seed: 11}, "2db9fe226b0d8021b529983acdabadd5ba7c5b5050e38688866a79b677f4a049"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				w, err := Generate(tc.cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if got := worldDigest(w); got != tc.want {
					t.Errorf("GOMAXPROCS %d: world digest %s, want %s", procs, got, tc.want)
				}
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("zero blocks should error")
	}
}

func TestCountryDiurnalSharesFollowTargets(t *testing.T) {
	w, err := Generate(Config{Blocks: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(code string, tol float64) {
		c := CountryByCode(code)
		blocks := countryBlocks(w, code)
		if len(blocks) == 0 {
			t.Fatalf("no blocks for %s", code)
		}
		d := 0
		for _, b := range blocks {
			if b.DesignedDiurnal {
				d++
			}
		}
		got := float64(d) / float64(len(blocks))
		if math.Abs(got-c.DiurnalFrac) > tol {
			t.Errorf("%s designed diurnal frac = %v, target %v (n=%d)", code, got, c.DiurnalFrac, len(blocks))
		}
	}
	check("CN", 0.08)
	check("US", 0.02)
	check("BR", 0.09)
}

func TestDesignedDiurnalBlocksHaveDiurnalAddrs(t *testing.T) {
	w, err := Generate(Config{Blocks: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Blocks {
		if b.DesignedDiurnal {
			if b.NumDiurnal < 40 {
				t.Fatalf("diurnal block %s has only %d diurnal addrs", b.ID, b.NumDiurnal)
			}
			if b.LocalOnHour < 5 || b.LocalOnHour > 13 {
				t.Fatalf("on-hour %v out of range", b.LocalOnHour)
			}
		} else if b.NumDiurnal != 0 {
			t.Fatalf("non-diurnal block %s has diurnal addrs", b.ID)
		}
	}
}

func TestAllocationDatesWithinEra(t *testing.T) {
	w, err := Generate(Config{Blocks: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	eraStart := time.Date(1983, 1, 1, 0, 0, 0, 0, time.UTC)
	for s8, d := range w.AllocDates {
		if d.Before(eraStart) || d.After(allocEnd) {
			t.Fatalf("/%d allocated %v outside era", s8, d)
		}
	}
	// Early adopters hold earlier space on average.
	usMean, usFirst := w.MeanAllocYear("US")
	amMean, _ := w.MeanAllocYear("AM")
	if !(usMean < amMean) {
		t.Fatalf("US mean alloc %v should precede AM %v", usMean, amMean)
	}
	if usFirst > 1986 {
		t.Fatalf("US first alloc = %v", usFirst)
	}
	if m, f := w.MeanAllocYear("XX"); !math.IsNaN(m) || !math.IsNaN(f) {
		t.Fatal("unknown country should be NaN")
	}
}

func TestAllocMultIncreasing(t *testing.T) {
	early := allocDiurnalMult(time.Date(1985, 1, 1, 0, 0, 0, 0, time.UTC))
	late := allocDiurnalMult(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC))
	if !(late > early) {
		t.Fatalf("alloc mult: late %v should exceed early %v", late, early)
	}
	if got := allocDiurnalMult(time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)); got != 0.5 {
		t.Fatalf("pre-era mult = %v", got)
	}
	if got := allocDiurnalMult(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)); got != 1.5 {
		t.Fatalf("post-era mult = %v", got)
	}
}

func TestISPsAndOrgs(t *testing.T) {
	w, err := Generate(Config{Blocks: 500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.ISPs) < len(Countries)*2 {
		t.Fatalf("only %d ISPs", len(w.ISPs))
	}
	for _, isp := range w.ISPs {
		if len(isp.ASNs) == 0 {
			t.Fatalf("ISP %q has no ASNs", isp.Name)
		}
		for _, a := range isp.ASNs {
			if w.ASNOrg[a] != isp.Name {
				t.Fatalf("ASN %d org mismatch", a)
			}
		}
	}
	// Every block's ASN resolves to its org.
	for _, b := range w.Blocks {
		if w.ASNOrg[b.ASN] != b.OrgName {
			t.Fatalf("block %s ASN %d org %q != %q", b.ID, b.ASN, w.ASNOrg[b.ASN], b.OrgName)
		}
	}
}

func TestCentroidFraction(t *testing.T) {
	w, err := Generate(Config{Blocks: 4000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range w.Blocks {
		if b.CountryCentroid {
			n++
		}
	}
	frac := float64(n) / float64(len(w.Blocks))
	if frac < 0.04 || frac > 0.11 {
		t.Fatalf("centroid fraction = %v, want ~0.07", frac)
	}
}

// countryBlocks returns the blocks generated for a country code.
func countryBlocks(w *World, code string) []*BlockInfo {
	var out []*BlockInfo
	for _, b := range w.Blocks {
		if b.Country.Code == code {
			out = append(out, b)
		}
	}
	return out
}

func TestRegionHelpers(t *testing.T) {
	ea := 0
	for i := range Countries {
		if Countries[i].Region == RegionEasternAsia {
			ea++
		}
	}
	if ea != 6 {
		t.Fatalf("Eastern Asia has %d countries", ea)
	}
	if TotalWeight() < 1000 {
		t.Fatalf("TotalWeight = %v", TotalWeight())
	}
	us := CountryByCode("US")
	if math.Abs(us.CenterLon()-(-95.5)) > 0.01 {
		t.Fatalf("US centroid lon = %v", us.CenterLon())
	}
}

// BenchmarkGenerate times whole worlds: an outage-free one, which takes the
// serial loop alone, and the benchmark's study shape, whose outage
// schedules run on the workers.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"outage-free-2000", Config{Blocks: 2000}},
		{"study-2500", Config{Blocks: 2500, OutagesPerBlockWeek: 0.15}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := bc.cfg
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveHeap is the heap in use once everything unreachable has been swept.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWorldHeapBudget holds a generated world — the benchmark's study-14d
// shape — to 3.7 KB of live heap a block, everything counted: the netsim
// block (88 B) and its host table, BlockInfo, the network's and the world's
// maps. At the 31 KB a block of 256 interface-valued behaviours and a
// per-host memo array, the paper's 3.7M /24s could not be held in memory
// at all; at this budget they fit in 14 GB. The seed-42 world measures
// 3,532 B a block (16 B an intermittent host); the budget leaves 257 B, 7%,
// for runtime and map-growth drift, and fails the 4,039 B a block it held
// while the intermittent column stored 24 B a host.
func TestWorldHeapBudget(t *testing.T) {
	before := liveHeap()
	w, err := Generate(Config{Blocks: 2500, Seed: 42, OutagesPerBlockWeek: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	perBlock := float64(liveHeap()-before) / float64(len(w.Blocks))
	runtime.KeepAlive(w)
	t.Logf("%d blocks, %.0f B of live heap a block", len(w.Blocks), perBlock)
	if perBlock > 3.7*1024 {
		t.Fatalf("world holds %.0f B of live heap a block, budget 3789", perBlock)
	}
}
