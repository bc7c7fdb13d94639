// Package asn maps IP blocks to autonomous systems and clusters ASes into
// organizations, following §2.3.2 of the paper: blocks map to an AS by
// their .0 address (Team Cymru-style), and ASes map to organizations by
// WHOIS-name string clustering — generic tokens are stripped and the
// remaining distinctive tokens form the cluster key, so "Brazil Telecom"
// and "BrazilNet Backbone" cluster together.
package asn

import (
	"sort"
	"strings"

	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

// Table is an immutable block→ASN and ASN→name mapping.
type Table struct {
	blockASN map[netsim.BlockID]int
	asnName  map[int]string
}

// NewTable builds a table from explicit mappings (both copied).
func NewTable(blockASN map[netsim.BlockID]int, asnName map[int]string) *Table {
	t := &Table{
		blockASN: make(map[netsim.BlockID]int, len(blockASN)),
		asnName:  make(map[int]string, len(asnName)),
	}
	for k, v := range blockASN {
		t.blockASN[k] = v
	}
	for k, v := range asnName {
		t.asnName[k] = v
	}
	return t
}

// FromWorld derives the table the measurement side uses from ground truth,
// with the paper's coverage (99.41% of blocks resolve). Dropped blocks are
// deterministic in the seed.
func FromWorld(w *world.World, coverage float64, seed uint64) *Table {
	if coverage <= 0 {
		coverage = 0.9941
	}
	blockASN := make(map[netsim.BlockID]int, len(w.Blocks))
	for _, b := range w.Blocks {
		if coverage < 1 && hashUnit(seed, uint64(b.ID)) >= coverage {
			continue
		}
		blockASN[b.ID] = b.ASN
	}
	return NewTable(blockASN, w.ASNOrg)
}

func hashUnit(seed uint64, x uint64) float64 {
	h := seed + 0x9e3779b97f4a7c15
	mix := func(v uint64) uint64 {
		v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
		v = (v ^ (v >> 27)) * 0x94d049bb133111eb
		return v ^ (v >> 31)
	}
	h = mix(mix(h) ^ x)
	return float64(h>>11) / (1 << 53)
}

// genericTokens are words too common in AS names to distinguish operators.
var genericTokens = map[string]bool{
	"telecom": true, "net": true, "backbone": true, "cable": true,
	"broadband": true, "university": true, "of": true, "mobile": true,
	"inc": true, "llc": true, "ltd": true, "co": true, "corp": true,
	"communications": true, "network": true, "networks": true, "isp": true,
	"the": true, "and": true, "services": true, "as": true,
}

// ClusterKey normalizes an AS name to its organization cluster key: the
// distinctive tokens, lowercased and sorted. Names reduced to nothing
// return "".
func ClusterKey(name string) string {
	fields := strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	var keep []string
	for _, f := range fields {
		if genericTokens[f] {
			continue
		}
		keep = append(keep, f)
	}
	if len(keep) == 0 {
		return ""
	}
	sort.Strings(keep)
	return strings.Join(keep, " ")
}

// Clusters groups all known ASes by organization cluster key.
func (t *Table) Clusters() map[string][]int {
	out := make(map[string][]int)
	for asn, name := range t.asnName {
		k := ClusterKey(name)
		if k == "" {
			continue
		}
		out[k] = append(out[k], asn)
	}
	for _, asns := range out {
		sort.Ints(asns)
	}
	return out
}

// BlocksOfOrg returns the blocks operated by any AS whose name matches the
// keyword (case-insensitive substring, the paper's "Time Warner" example):
// keyword match finds the clusters, then all ASes in those clusters, then
// all their blocks.
func (t *Table) BlocksOfOrg(keyword string) []netsim.BlockID {
	kw := strings.ToLower(keyword)
	clusters := t.Clusters()
	matched := make(map[int]bool)
	for key, asns := range clusters {
		hit := strings.Contains(key, kw)
		if !hit {
			// Also match against the raw names within the cluster.
			for _, a := range asns {
				if strings.Contains(strings.ToLower(t.asnName[a]), kw) {
					hit = true
					break
				}
			}
		}
		if hit {
			for _, a := range asns {
				matched[a] = true
			}
		}
	}
	var out []netsim.BlockID
	for id, a := range t.blockASN {
		if matched[a] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
