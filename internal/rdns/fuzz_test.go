package rdns

import (
	"strings"
	"testing"

	"sleepnet/internal/netsim"
)

// FuzzClassify throws arbitrary reverse names at the keyword classifier and
// checks its invariants, mirroring the icmp FuzzParse pattern: no panics,
// deterministic output, features drawn only from the kept keywords in
// canonical order, the 1/15th suppression rule honored, the synthesizer's
// Domain never injecting features through the zone name, and the one-name
// BlockFeatures equal to classifying all 256 of BlockNames. Run with
// `go test -fuzz=FuzzClassify ./internal/rdns`.
func FuzzClassify(f *testing.F) {
	f.Add("dhcp-dialup-001.example.com", "host-001.example.net")
	f.Add("STA-007.big-isp.org", "")
	f.Add("dyn.dyn.dyn", "cable-res-9")
	f.Add("University of Pakistan", "wireless-sql-gw")
	f.Add(strings.Repeat("dsl", 100), "\x00\xff not a hostname \t")
	f.Add("dsl", "wIFi.CLIENT-ded.isp.example.net")
	f.Add("cable", "")

	kept := make(map[string]bool)
	for _, kw := range keptKeywords() {
		kept[kw] = true
	}
	order := make(map[string]int, len(ConsideredKeywords))
	for i, kw := range ConsideredKeywords {
		order[kw] = i
	}

	var one FeatureSet
	var scratch []byte // reused across inputs, as LinkTypes reuses it across blocks
	f.Fuzz(func(t *testing.T, a, b string) {
		// match: deterministic, canonical order, real substrings.
		fa := match(a).names()
		if again := match(a).names(); len(again) != len(fa) {
			t.Fatalf("match(%q) not deterministic: %v vs %v", a, fa, again)
		}
		low := strings.ToLower(a)
		if isASCII(a) {
			// On ASCII, which is all DNS has, the one-pass matcher is
			// exactly lowercase-then-search for each keyword.
			var naive []string
			for _, kw := range ConsideredKeywords {
				if strings.Contains(low, kw) {
					naive = append(naive, kw)
				}
			}
			if strings.Join(fa, ",") != strings.Join(naive, ",") {
				t.Fatalf("match(%q) = %v, keyword-by-keyword search finds %v", a, fa, naive)
			}
		}
		for i, kw := range fa {
			if _, known := order[kw]; !known {
				t.Fatalf("match(%q) produced unknown keyword %q", a, kw)
			}
			if !strings.Contains(low, kw) {
				t.Fatalf("match(%q) claims %q which is not a substring", a, kw)
			}
			if i > 0 && order[fa[i-1]] >= order[kw] {
				t.Fatalf("match(%q) out of canonical order: %v", a, fa)
			}
		}

		// ClassifyBlock: structural invariants over a mixed block.
		names := []string{a, b, "", a + "." + b, strings.ToUpper(a)}
		cls := ClassifyBlock(names)
		wantNamed := 0
		for _, n := range names {
			if n != "" {
				wantNamed++
			}
		}
		if cls.Named != wantNamed {
			t.Fatalf("Named = %d, want %d", cls.Named, wantNamed)
		}
		max := 0
		for _, c := range cls.Counts {
			if c > max {
				max = c
			}
		}
		prev := -1
		for _, feat := range cls.Features {
			if !kept[feat] {
				t.Fatalf("Features contains non-kept keyword %q (%v)", feat, cls.Features)
			}
			if DiscardedKeywords[feat] {
				t.Fatalf("Features contains discarded keyword %q", feat)
			}
			c := cls.Counts[feat]
			if c == 0 {
				t.Fatalf("feature %q has zero count", feat)
			}
			if c*suppressionRatio < max {
				t.Fatalf("feature %q (count %d) survived below the 1/%d suppression floor (max %d)",
					feat, c, suppressionRatio, max)
			}
			if o := order[feat]; o <= prev {
				t.Fatalf("Features out of canonical order: %v", cls.Features)
			} else {
				prev = o
			}
		}

		// Domain must never inject classification features via the zone.
		if got := match(Domain(a)).names(); len(got) != 0 {
			t.Fatalf("Domain(%q) = %q injects features %v", a, Domain(a), got)
		}

		// Matching one of a block's names classifies it as the tally over
		// all 256 does, whatever the link type and domain are.
		synth := &Synthesizer{NamedFrac: 0.6, MultiFrac: 0.3, Seed: uint64(len(a))}
		id := netsim.MakeBlockID(byte(len(b)), byte(len(a)), 7)
		slice := ClassifyBlock(synth.BlockNames(id, a, b))
		one, scratch = synth.BlockFeatures(scratch, id, a, b)
		if got := one.names(); strings.Join(got, ",") != strings.Join(slice.Features, ",") || one.Len() != len(slice.Features) {
			t.Fatalf("BlockFeatures(%q, %q) = %v, ClassifyBlock(BlockNames) = %v", a, b, got, slice.Features)
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
