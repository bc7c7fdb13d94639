package rdns

import (
	"regexp"
	"strings"
	"testing"

	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

func TestFeaturesOf(t *testing.T) {
	cases := []struct {
		name string
		want []string
	}{
		{"dhcp-dialup-001.example.com", []string{"dhcp", "dial"}},
		{"adsl-042.isp.net", []string{"dsl"}},
		{"static-007.isp.net", []string{"sta"}},
		{"host-001.isp.net", nil},
		{"DYNAMIC-9.ISP.NET", []string{"dyn"}},
		{"", nil},
	}
	for _, c := range cases {
		got := match(c.name).names()
		if len(got) != len(c.want) {
			t.Errorf("match(%q) = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("match(%q) = %v, want %v", c.name, got, c.want)
			}
		}
	}
}

func TestClassifyBlockBasic(t *testing.T) {
	names := make([]string, 256)
	for i := 0; i < 200; i++ {
		names[i] = "adsl-line.isp.net"
	}
	c := ClassifyBlock(names)
	if len(c.Features) != 1 || c.Features[0] != "dsl" {
		t.Fatalf("Features = %v", c.Features)
	}
	if c.Named != 200 || c.Counts["dsl"] != 200 {
		t.Fatalf("classification = %+v", c)
	}
}

func TestClassifyBlockSuppression(t *testing.T) {
	names := make([]string, 256)
	for i := 0; i < 150; i++ {
		names[i] = "dynamic-host.isp.net"
	}
	// 9 dsl names: 9*15 = 135 < 150 -> suppressed.
	for i := 150; i < 159; i++ {
		names[i] = "adsl-line.isp.net"
	}
	// 30 cable names: 30*15 = 450 >= 150 -> kept.
	for i := 159; i < 189; i++ {
		names[i] = "cable-modem.isp.net"
	}
	c := ClassifyBlock(names)
	if got := strings.Join(c.Features, ","); got != "dyn,cable" {
		t.Fatalf("Features = %v, want dyn and cable with dsl suppressed", c.Features)
	}
}

func TestClassifyBlockDiscardsStarredKeywords(t *testing.T) {
	names := make([]string, 256)
	for i := 0; i < 100; i++ {
		names[i] = "wireless-ap.isp.net"
	}
	c := ClassifyBlock(names)
	if len(c.Features) != 0 {
		t.Fatalf("wireless must be discarded, got %v", c.Features)
	}
	if c.Counts["wireless"] != 100 {
		t.Fatal("count should still be recorded")
	}
}

func TestClassifyBlockEmpty(t *testing.T) {
	c := ClassifyBlock(make([]string, 256))
	if c.Named != 0 || len(c.Features) != 0 {
		t.Fatalf("empty block = %+v", c)
	}
	c = ClassifyBlock(nil)
	if len(c.Features) != 0 {
		t.Fatal("nil names")
	}
}

func TestSynthesizerRates(t *testing.T) {
	s := NewSynthesizer(42)
	var withFeature, multi, total int
	for i := 0; i < 3000; i++ {
		id := netsim.MakeBlockID(byte(i>>16), byte(i>>8), byte(i))
		names := s.BlockNames(id, "dsl", "isp.example.net")
		c := ClassifyBlock(names)
		total++
		if len(c.Features) > 0 {
			withFeature++
		}
		if len(c.Features) > 1 {
			multi++
		}
	}
	fFrac := float64(withFeature) / float64(total)
	mFrac := float64(multi) / float64(total)
	if fFrac < 0.42 || fFrac > 0.51 {
		t.Fatalf("feature fraction = %v, want ~0.463", fFrac)
	}
	if mFrac < 0.08 || mFrac > 0.15 {
		t.Fatalf("multi fraction = %v, want ~0.114", mFrac)
	}
}

func TestSynthesizerKeywordMatchesLinkType(t *testing.T) {
	s := &Synthesizer{NamedFrac: 1, MultiFrac: 0, Seed: 7}
	for link, kw := range map[string]string{
		"dsl": "dsl", "dyn": "dyn", "dial": "dial", "cable": "cable",
		"dhcp": "dhcp", "ppp": "ppp", "sta": "sta", "srv": "srv", "res": "res",
	} {
		id := netsim.MakeBlockID(9, 9, 9)
		c := ClassifyBlock(s.BlockNames(id, link, "isp.example.net"))
		if !strings.Contains(","+strings.Join(c.Features, ",")+",", ","+kw+",") {
			t.Errorf("link %q: features %v missing %q", link, c.Features, kw)
		}
	}
}

func TestSynthesizerDeterministic(t *testing.T) {
	s := NewSynthesizer(5)
	id := netsim.MakeBlockID(1, 2, 3)
	a := s.BlockNames(id, "cable", "x.net")
	b := s.BlockNames(id, "cable", "x.net")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthesis must be deterministic")
		}
	}
}

func TestDomainSanitization(t *testing.T) {
	// "Pakistan" contains "sta": the domain must not leak it.
	d := Domain("Pakistan Telecom")
	for _, kw := range ConsideredKeywords {
		if strings.Contains(d, kw) {
			t.Fatalf("domain %q leaks keyword %q", d, kw)
		}
	}
	if Domain("") != "example.net" {
		t.Fatal("empty org domain")
	}
	if got := Domain("Acme Broadband"); got != "acme-broadband.example.net" {
		t.Fatalf("Domain = %q", got)
	}
}

func TestWorldDomainsNeverLeakKeywords(t *testing.T) {
	// Across the whole synthetic world, generic-style names must classify
	// to nothing: the domain part must never contribute features.
	w, err := world.Generate(world.Config{Blocks: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, isp := range w.ISPs {
		d := Domain(isp.Name)
		for _, kw := range ConsideredKeywords {
			if strings.Contains(d, kw) {
				t.Fatalf("ISP %q domain %q leaks %q", isp.Name, d, kw)
			}
		}
	}
}

func TestKeywordTables(t *testing.T) {
	if len(ConsideredKeywords) != 16 {
		t.Fatalf("considered = %d, want 16", len(ConsideredKeywords))
	}
	n := 0
	for range DiscardedKeywords {
		n++
	}
	if n != 7 {
		t.Fatalf("discarded = %d, want 7", n)
	}
	// Considered minus discarded, in the same order, are Fig 17's nine rows.
	if got := strings.Join(keptKeywords(), ","); got != "sta,dyn,srv,dhcp,ppp,dsl,dial,cable,res" {
		t.Fatalf("considered minus discarded = %v", got)
	}
}

// keptKeywords are the keywords the analysis retains: considered, not starred.
func keptKeywords() []string {
	var kept []string
	for _, kw := range ConsideredKeywords {
		if !DiscardedKeywords[kw] {
			kept = append(kept, kw)
		}
	}
	return kept
}

// TestKeywordsAreLowercaseLetters pins the fact BlockFeatures' one-name
// match rests on: a keyword holds no digit, '-' or '.', so it never matches
// across the three-digit host label that alone tells a block's names apart.
func TestKeywordsAreLowercaseLetters(t *testing.T) {
	for _, kw := range ConsideredKeywords {
		if kw == "" || strings.Trim(kw, "abcdefghijklmnopqrstuvwxyz") != "" {
			t.Errorf("keyword %q is not [a-z]+", kw)
		}
	}
}

// TestBlockFeaturesMatchesClassifyBlock pins the one-name classification
// Fig 17 uses to the full tally over all 256 names: for 3,000 blocks under
// one fixed zone, for every block of a generated world under its own operator's zone and link type, and for
// every zone the world's operators get — the z%06d zones Domain substitutes
// for keyword-bearing tokens included — under every link type the world
// draws, over the synthesizer's three naming styles. A warm scratch costs
// no allocation a block.
func TestBlockFeaturesMatchesClassifyBlock(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 2500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSynthesizer(42)
	var scratch []byte
	styles := make(map[int]int)
	check := func(id netsim.BlockID, link, domain string) {
		t.Helper()
		want := ClassifyBlock(s.BlockNames(id, link, domain)).Features
		var got FeatureSet
		got, scratch = s.BlockFeatures(scratch, id, link, domain)
		if strings.Join(got.names(), ",") != strings.Join(want, ",") {
			t.Fatalf("block %s (%s, %s): BlockFeatures = %v, ClassifyBlock(BlockNames) = %v", id, link, domain, got.names(), want)
		}
		styles[got.Len()]++
	}

	kept := keptKeywords()
	for i := 0; i < 3000; i++ {
		check(netsim.MakeBlockID(byte(i>>16), byte(i>>8), byte(i)), kept[i%len(kept)], "isp.example.net")
	}
	var domains []string
	seen := make(map[string]bool)
	links := make(map[string]bool)
	for _, b := range w.Blocks {
		d := Domain(b.OrgName)
		check(b.ID, b.LinkType, d)
		links[b.LinkType] = true
		if !seen[d] {
			seen[d] = true
			domains = append(domains, d)
		}
	}
	for _, link := range world.LinkTypes {
		if !links[link] {
			t.Errorf("the world draws no %s block", link)
		}
	}
	sanitized := regexp.MustCompile(`(^|-)z[0-9]{6}[-.]`)
	zones := 0
	for k, d := range domains {
		if sanitized.MatchString(d) {
			zones++
		}
		for j, link := range world.LinkTypes {
			for r := 0; r < 4; r++ {
				check(w.Blocks[(k*len(world.LinkTypes)*4+j*4+r)%len(w.Blocks)].ID, link, d)
			}
		}
	}
	if zones == 0 {
		t.Errorf("none of the world's %d zones is a sanitized z%%06d zone", len(domains))
	}
	if styles[0] == 0 || styles[1] == 0 || styles[2] == 0 {
		t.Fatalf("blocks by feature count = %v; want generic, keyword and dual-keyword styles", styles)
	}
	id := netsim.MakeBlockID(1, 2, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		_, scratch = s.BlockFeatures(scratch, id, "dsl", "isp.example.net")
	}); allocs != 0 {
		t.Fatalf("BlockFeatures allocates %v times a block with a warm scratch, want 0", allocs)
	}
}
