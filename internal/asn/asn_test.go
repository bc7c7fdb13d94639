package asn

import (
	"testing"

	"sleepnet/internal/netsim"
	"sleepnet/internal/world"
)

func TestClusterKey(t *testing.T) {
	cases := map[string]string{
		"Brazil Telecom":         "brazil",
		"BrazilNet Backbone":     "brazilnet",
		"Cable Brazil":           "brazil",
		"Time Warner Cable":      "time warner",
		"The University of Oslo": "oslo",
		"Telecom":                "",
		"":                       "",
		"AS-Foo Networks LLC":    "foo",
	}
	for in, want := range cases {
		if got := ClusterKey(in); got != want {
			t.Errorf("ClusterKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNewTableAndLookup(t *testing.T) {
	b1 := netsim.MakeBlockID(1, 2, 3)
	tab := NewTable(
		map[netsim.BlockID]int{b1: 100},
		map[int]string{100: "Foo Telecom", 101: "Foo Broadband"},
	)
	if a, ok := tab.blockASN[b1]; !ok || a != 100 {
		t.Fatalf("block's ASN = %d %v", a, ok)
	}
	if _, ok := tab.blockASN[netsim.MakeBlockID(9, 9, 9)]; ok {
		t.Fatal("unknown block should fail")
	}
	if tab.asnName[100] != "Foo Telecom" || tab.asnName[999] != "" {
		t.Fatal("AS names")
	}
	if len(tab.blockASN) != 1 {
		t.Fatalf("%d blocks mapped, want 1", len(tab.blockASN))
	}
}

func TestClustersGroupRelatedASes(t *testing.T) {
	tab := NewTable(nil, map[int]string{
		1: "Acme Telecom",
		2: "Cable Acme",
		3: "Zenith Networks",
		4: "Telecom", // degenerate, dropped
	})
	clusters := tab.Clusters()
	if got := clusters["acme"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("acme cluster = %v", got)
	}
	if got := clusters["zenith"]; len(got) != 1 {
		t.Fatalf("zenith cluster = %v", got)
	}
	if _, ok := clusters[""]; ok {
		t.Fatal("empty key cluster should not exist")
	}
}

func TestBlocksOfOrg(t *testing.T) {
	b1 := netsim.MakeBlockID(1, 0, 0)
	b2 := netsim.MakeBlockID(2, 0, 0)
	b3 := netsim.MakeBlockID(3, 0, 0)
	tab := NewTable(
		map[netsim.BlockID]int{b1: 1, b2: 2, b3: 3},
		map[int]string{1: "Acme Telecom", 2: "Cable Acme", 3: "Zenith Networks"},
	)
	got := tab.BlocksOfOrg("acme")
	if len(got) != 2 || got[0] != b1 || got[1] != b2 {
		t.Fatalf("BlocksOfOrg(acme) = %v", got)
	}
	if got := tab.BlocksOfOrg("zenith"); len(got) != 1 || got[0] != b3 {
		t.Fatalf("BlocksOfOrg(zenith) = %v", got)
	}
	if got := tab.BlocksOfOrg("nonexistent"); len(got) != 0 {
		t.Fatalf("BlocksOfOrg(nonexistent) = %v", got)
	}
}

func TestFromWorld(t *testing.T) {
	w, err := world.Generate(world.Config{Blocks: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tab := FromWorld(w, 0, 9) // default coverage 0.9941
	frac := float64(len(tab.blockASN)) / float64(len(w.Blocks))
	if frac < 0.985 || frac > 1 {
		t.Fatalf("coverage = %v", frac)
	}
	// Mapped blocks resolve to the right org.
	hits := 0
	for _, b := range w.Blocks {
		a, ok := tab.blockASN[b.ID]
		if !ok {
			continue
		}
		hits++
		if a != b.ASN || tab.asnName[a] != b.OrgName {
			t.Fatalf("block %s maps to %d/%q, want %d/%q", b.ID, a, tab.asnName[a], b.ASN, b.OrgName)
		}
	}
	if hits == 0 {
		t.Fatal("no blocks mapped")
	}
	// An org keyword query returns that country's operator blocks.
	blocks := tab.BlocksOfOrg("brazil")
	if len(blocks) == 0 {
		t.Fatal("no Brazilian operator blocks found")
	}
	for _, id := range blocks {
		if w.ByID[id].Country.Code != "BR" {
			t.Fatalf("block %s is %s, not BR", id, w.ByID[id].Country.Code)
		}
	}
}
