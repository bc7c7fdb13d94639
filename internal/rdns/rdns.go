// Package rdns synthesizes and classifies reverse DNS names, implementing
// §2.3.3 of the paper. Classification matches each address's reverse name
// non-exclusively against the 16 considered keywords (7 of which the paper
// discards as too rare), builds a per-block feature vector over 256
// addresses, suppresses features rarer than 1/15th of the dominant one, and
// labels the block with everything that survives.
//
// Synthesis runs the other direction for the simulated world: given a
// block's true access technology it produces names a real ISP of that kind
// would publish, including the realities the paper reports — only ~46% of
// blocks carry any keyword at all, and ~11% carry more than one. A
// synthesized block's names differ only in their three-digit host label,
// which no keyword can match, so the study classifies a block from one of
// its names (Synthesizer.BlockFeatures); ClassifyBlock over all 256 is the
// reference it is tested against.
package rdns

import (
	"fmt"
	"math/bits"
	"strings"

	"sleepnet/internal/netsim"
	"sleepnet/internal/prf"
)

// ConsideredKeywords are the 16 keywords of §2.3.3, in the paper's order.
// The starred seven (rtr, gw, ded, client, sql, wireless, wifi) are
// discarded because they dominate in fewer than 1000 blocks.
var ConsideredKeywords = []string{
	"sta", "dyn", "srv", "rtr", "gw", "dhcp", "ppp", "dsl",
	"dial", "cable", "ded", "res", "client", "sql", "wireless", "wifi",
}

// DiscardedKeywords is the starred subset.
var DiscardedKeywords = map[string]bool{
	"rtr": true, "gw": true, "ded": true, "client": true,
	"sql": true, "wireless": true, "wifi": true,
}

// suppressionRatio drops features rarer than 1/15th of the dominant one.
const suppressionRatio = 15

// FeatureSet is a set of ConsideredKeywords: bit i stands for
// ConsideredKeywords[i].
type FeatureSet uint16

// Len returns the number of keywords in the set.
func (f FeatureSet) Len() int { return bits.OnesCount16(uint16(f)) }

// Has reports whether ConsideredKeywords[i] is in the set.
func (f FeatureSet) Has(i int) bool { return f&(1<<i) != 0 }

// names lists the set in ConsideredKeywords order.
func (f FeatureSet) names() []string {
	var out []string
	for i, kw := range ConsideredKeywords {
		if f.Has(i) {
			out = append(out, kw)
		}
	}
	return out
}

// byFirst lists, for every byte, the ConsideredKeywords that start with it,
// and discarded is the starred subset as a set; both are derived once from
// the tables above.
var (
	byFirst   [256][]uint8
	discarded FeatureSet
)

func init() {
	for i, kw := range ConsideredKeywords {
		byFirst[kw[0]] = append(byFirst[kw[0]], uint8(i))
		if DiscardedKeywords[kw] {
			discarded |= 1 << i
		}
	}
}

// lower folds an ASCII capital to its small letter. DNS names are ASCII; no
// other letter case is folded.
func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// match returns the keywords found in one reverse name: non-exclusive
// substring matching, ASCII case folded — a name like
// "dhcp-dialup-001.example.com" yields both "dhcp" and "dial". It is the one
// matcher behind ClassifyBlock and BlockFeatures: a single pass over the
// name that tries, at each byte, only the keywords starting with it.
// Keywords are lowercase letters only (TestKeywordsAreLowercaseLetters), so
// a match never spans a digit, '-' or '.'.
func match[T string | []byte](name T) FeatureSet {
	var found FeatureSet
	for i := 0; i < len(name); i++ {
	next:
		for _, k := range byFirst[lower(name[i])] {
			kw := ConsideredKeywords[k]
			if len(name)-i < len(kw) {
				continue
			}
			for j := 1; j < len(kw); j++ {
				if lower(name[i+j]) != kw[j] {
					continue next
				}
			}
			found |= 1 << k
		}
	}
	return found
}

// tally counts, over the named addresses of one block, how many carry each
// keyword.
type tally struct {
	counts [16]int
	named  int
}

// add records one named address carrying the keywords in f.
func (t *tally) add(f FeatureSet) {
	t.named++
	for ; f != 0; f &= f - 1 {
		t.counts[bits.TrailingZeros16(uint16(f))]++
	}
}

// features applies the paper's rules to the counts: suppress features rarer
// than 1/15th of the most frequent one, discard the seven starred keywords,
// and label the block with the rest.
func (t *tally) features() FeatureSet {
	max := 0
	for _, c := range t.counts {
		if c > max {
			max = c
		}
	}
	var out FeatureSet
	for i, c := range t.counts {
		if c > 0 && c*suppressionRatio >= max {
			out |= 1 << i
		}
	}
	return out &^ discarded
}

// BlockClassification is the outcome of classifying one /24.
type BlockClassification struct {
	// Features are the block's surviving labels (kept keywords only),
	// in ConsideredKeywords order.
	Features []string
	// Counts maps every matched keyword (including discarded ones) to the
	// number of addresses carrying it.
	Counts map[string]int
	// Named is the number of addresses that had a reverse name at all.
	Named int
}

// ClassifyBlock classifies a /24 given the reverse names of its addresses
// (empty strings mean no PTR record). It applies the paper's rules: count
// features across addresses, suppress minor features below 1/15th of the
// most frequent, discard the seven starred keywords, and label with the
// rest.
//
// Nothing outside tests calls it: with Synthesizer.BlockNames it is the
// full-tally reference that FuzzClassify and
// TestBlockFeaturesMatchesClassifyBlock hold the one-name BlockFeatures to.
func ClassifyBlock(names []string) BlockClassification {
	var t tally
	for _, n := range names {
		if n != "" {
			t.add(match(n))
		}
	}
	out := BlockClassification{Features: t.features().names(), Counts: make(map[string]int), Named: t.named}
	for i, c := range t.counts {
		if c > 0 {
			out.Counts[ConsideredKeywords[i]] = c
		}
	}
	return out
}

// linkKeywordToken maps a world link type to the name fragment an ISP of
// that kind typically publishes.
var linkKeywordToken = map[string]string{
	"sta":   "static",
	"dyn":   "dynamic",
	"srv":   "srv",
	"dhcp":  "dhcp",
	"ppp":   "ppp",
	"dsl":   "adsl",
	"dial":  "dialup",
	"cable": "cable",
	"res":   "res",
}

// Synthesizer produces deterministic reverse names for simulated blocks.
type Synthesizer struct {
	// NamedFrac is the fraction of blocks that publish keyword-bearing
	// names at all (paper: 46.3% of blocks have some feature).
	NamedFrac float64
	// MultiFrac is the fraction of blocks that publish names with two
	// features (paper: 11.4% have multiple).
	MultiFrac float64
	Seed      uint64
}

// NewSynthesizer returns a Synthesizer with the paper's observed rates.
func NewSynthesizer(seed uint64) *Synthesizer {
	return &Synthesizer{NamedFrac: 0.463, MultiFrac: 0.114, Seed: seed}
}

// secondFeature pairs a primary link keyword with a plausible companion.
var secondFeature = map[string]string{
	"dyn":   "dhcp",
	"dhcp":  "dynamic",
	"dsl":   "dynamic",
	"ppp":   "adsl",
	"dial":  "ppp",
	"cable": "res",
	"res":   "cable",
	"sta":   "srv",
	"srv":   "static",
}

// namer writes one block's reverse names: the block's deterministic draw
// decides once whether its operator publishes keyword names, dual-keyword
// names, or generic names with no keywords (the unclassifiable majority).
type namer struct {
	seed, id      uint64
	token, second string // "second" is empty unless the style is dual-keyword
	domain        string
}

func (s *Synthesizer) namer(id netsim.BlockID, linkType, domain string) namer {
	n := namer{seed: s.Seed, id: uint64(id), token: "host", domain: domain}
	u := prf.LegacyFloat(s.Seed, uint64(id), 1)
	multi := u < s.MultiFrac
	if !multi && u >= s.NamedFrac {
		return n // generic: host-hhh.domain whatever the link type
	}
	if t := linkKeywordToken[linkType]; t != "" {
		n.token = t
	}
	if multi {
		if n.second = secondFeature[linkType]; n.second == "" {
			n.second = "dynamic"
		}
	}
	return n
}

// appendName appends address h's reverse name to dst — token[-second]-hhh.domain
// — or nothing when the address has no PTR record at all.
func (n *namer) appendName(dst []byte, h int) []byte {
	if prf.LegacyFloat(n.seed, n.id, uint64(h), 2) < 0.15 {
		return dst
	}
	dst = append(append(dst, n.token...), '-')
	if n.second != "" {
		dst = append(append(dst, n.second...), '-')
	}
	dst = append(dst, byte('0'+h/100), byte('0'+h/10%10), byte('0'+h%10), '.')
	return append(dst, n.domain...)
}

// BlockNames synthesizes the 256 reverse names for a block with the given
// true link type and an ISP domain; addresses without a PTR record get the
// empty string. It is the other half of the reference named at
// ClassifyBlock; the study classifies the block with BlockFeatures, which
// writes and matches one of these names.
func (s *Synthesizer) BlockNames(id netsim.BlockID, linkType, domain string) []string {
	names := make([]string, 256)
	n := s.namer(id, linkType, domain)
	var buf []byte
	for h := range names {
		buf = n.appendName(buf[:0], h)
		names[h] = string(buf)
	}
	return names
}

// BlockFeatures classifies the block BlockNames would name by matching one
// of its names, not all 256. That is exact: every name of a block is
// token[-second]-DDD.domain, the same but for the three-digit host label,
// and no keyword contains a digit, so a keyword found in one name lies
// wholly in the part before the label or wholly in the part after it, and
// match finds the same set F in every named address. ClassifyBlock's
// tally then counts each keyword of F once a named address, every count
// equals the maximum and none falls under the 1/15 floor: the block's
// features are F less the discarded keywords if any address has a name,
// and none otherwise. The result is
// ClassifyBlock(s.BlockNames(id, linkType, domain))'s Features as a set
// (FuzzClassify and TestBlockFeaturesMatchesClassifyBlock hold the two
// equal); the first named address is written into scratch, and the
// possibly grown scratch is returned for reuse.
func (s *Synthesizer) BlockFeatures(scratch []byte, id netsim.BlockID, linkType, domain string) (FeatureSet, []byte) {
	n := s.namer(id, linkType, domain)
	for h := 0; h < 256; h++ {
		if scratch = n.appendName(scratch[:0], h); len(scratch) > 0 {
			return match(scratch) &^ discarded, scratch
		}
	}
	return 0, scratch
}

// Domain derives a plausible ISP reverse-zone domain from an organization
// name ("Brazil Telecom" -> "brazil-telecom.example.net"). Tokens that
// accidentally contain a classification keyword (e.g. "Pakistan" contains
// "sta") are replaced with a neutral hash so the zone name itself never
// injects features — matching real classifiers, which match on the host
// label, not the operator's zone.
func Domain(org string) string {
	fields := strings.Fields(strings.ToLower(org))
	if len(fields) == 0 {
		return "example.net"
	}
	for i, f := range fields {
		if match(f) != 0 {
			fields[i] = fmt.Sprintf("z%06d", uint32(prf.LegacyFloat(0xd011a1, uint64(len(f)), uint64(f[0]))*999999))
		}
	}
	return strings.Join(fields, "-") + ".example.net"
}
