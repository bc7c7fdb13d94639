package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// docPath is the document whose tables the registry renders.
const docPath = "../../EXPERIMENTS.md"

// quickClaims runs every artifact at -quick, seed 42, the run EXPERIMENTS.md
// reports, and returns each one's claims by id.
func quickClaims(t *testing.T) map[string][]claim {
	e := newEnv(io.Discard, 42, 3000, 14, true)
	claims := make(map[string][]claim, len(registry))
	for i := range registry {
		a := &registry[i]
		c, err := e.run(a)
		if err != nil {
			t.Fatalf("%s: %v", a.id, err)
		}
		if len(c) == 0 {
			t.Errorf("%s: no claims", a.id)
		}
		claims[a.id] = c
	}
	return claims
}

// TestExperimentsDoc is the registry's gate. It fails on any gating claim
// of the -quick seed-42 run that misses its band, before it looks at the
// document, so SLEEPNET_UPDATE_GOLDEN cannot write a miss into it. Then it
// holds EXPERIMENTS.md's paper, extension and ablation tables to what the
// registry renders from that run: a hand-edited cell, or an artifact whose
// numbers moved, fails here. SLEEPNET_UPDATE_GOLDEN=1 rewrites the tables
// in place.
func TestExperimentsDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artifact")
	}
	claims := quickClaims(t)
	var missed []string
	for _, a := range registry {
		missed = append(missed, gateMisses(a.id, claims[a.id])...)
	}
	if len(missed) > 0 {
		t.Fatalf("gating claims missed their bands:\n  %s", strings.Join(missed, "\n  "))
	}
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	want := doc
	for _, kind := range []string{paperKind, extensionKind, ablationKind} {
		begin, end := "<!-- begin "+kind+" table: generated -->\n", "<!-- end "+kind+" table -->"
		i, j := strings.Index(want, begin), strings.Index(want, end)
		if i < 0 || j < i {
			t.Fatalf("%s: no %q ... %q markers", docPath, begin, end)
		}
		want = want[:i+len(begin)] + renderTable(kind, claims) + want[j:]
	}
	if os.Getenv("SLEEPNET_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(docPath, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if doc == want {
		return
	}
	got, exp := strings.Split(doc, "\n"), strings.Split(want, "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("%s:%d differs from the registry\n have: %s\n want: %s\n(make experiments-doc rewrites it)", docPath, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("%s differs from the registry in length (make experiments-doc rewrites it)", docPath)
}

// TestGateMisses checks that the gate can fail: a gating claim outside its
// band is reported, with its measured value and band; one inside its band,
// or an ungated one outside it, is not.
func TestGateMisses(t *testing.T) {
	claims := []claim{
		gated(pct("precision", "82.5%", 0.75, 1, 0.7475)),
		gated(pct("accuracy", "91.0%", 0.85, 1, 0.99)),
		pct("truly diurnal", "~10%", 0.05, 0.25, 0.3),
		gated(num("r", "−0.526", "%.3f", -0.8, -0.3, -0.2)),
	}
	got := append(gateMisses("table1", claims[:3]), gateMisses("fig16", claims[3:])...)
	want := []string{
		"table1: precision 74.8% not in [75.0%, 100.0%]",
		"fig16: r -0.200 not in [-0.800, -0.300]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("gateMisses = %q, want %q", got, want)
	}
	if got := gateMisses("table1", claims[1:3]); len(got) != 0 {
		t.Fatalf("gateMisses reported claims that pass the gate: %q", got)
	}
}

// BenchmarkArtifact times each artifact at -quick scale. The shared world
// and study are built by one untimed run first, so a world-scale artifact
// times its own analysis step.
func BenchmarkArtifact(b *testing.B) {
	e := newEnv(io.Discard, 42, 3000, 14, true)
	for i := range registry {
		a := &registry[i]
		b.Run(a.id, func(b *testing.B) {
			if _, err := e.run(a); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var claims []claim
			for n := 0; n < b.N; n++ {
				var err error
				if claims, err = e.run(a); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, c := range claims {
				b.ReportMetric(c.got, strings.ReplaceAll(c.name, " ", "_"))
			}
		})
	}
}
