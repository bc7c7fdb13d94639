package main

import (
	"bytes"
	"runtime"
	"testing"

	"sleepnet/internal/monitor"
)

// TestAgreementGoldenDeterminism extends the same-seed byte-identity suite
// to the agreement sweep: the agree artifact's printed report and claims
// must be byte-identical at GOMAXPROCS 1 and 4, which deal the blocks to a
// different number of workers in groups of a different size. This is what
// makes the committed report an artifact rather than a snapshot of one
// lucky run.
func TestAgreementGoldenDeterminism(t *testing.T) {
	render := func(procs int) ([]byte, []claim) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		claims, err := newEnv(&buf, 7, 3000, 14, true).run(lookup("agree"))
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), claims
	}
	one, oneClaims := render(1)
	four, fourClaims := render(4)
	if !bytes.Equal(one, four) {
		t.Errorf("agreement reports differ between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", one, four)
	}
	for i := range oneClaims {
		if oneClaims[i].got != fourClaims[i].got {
			t.Errorf("%s: %v at GOMAXPROCS 1, %v at 4", oneClaims[i].name, oneClaims[i].got, fourClaims[i].got)
		}
	}
	if !bytes.Contains(one, []byte("confusion")) || !bytes.Contains(one, []byte("outage-heavy")) {
		t.Fatalf("report missing expected structure:\n%s", one)
	}
}

// TestConfusionDerivedMetrics pins the matrix arithmetic the report depends
// on against a hand-built matrix, and the class names it is indexed by.
func TestConfusionDerivedMetrics(t *testing.T) {
	var c confusion
	// 10 strict/strict, 2 strict/relaxed, 3 relaxed/relaxed, 20 non/non,
	// 1 non/unknown, 4 unknown/unknown.
	c.m[classStrict][classStrict] = 10
	c.m[classStrict][classRelaxed] = 2
	c.m[classRelaxed][classRelaxed] = 3
	c.m[classNon][classNon] = 20
	c.m[classNon][classUnknown] = 1
	c.m[classUnknown][classUnknown] = 4

	if got := c.total(); got != 40 {
		t.Fatalf("total = %d, want 40", got)
	}
	if got, want := c.classAgree(), float64(10+3+20+4)/40; got != want {
		t.Fatalf("classAgree = %v, want %v", got, want)
	}
	if got := (&confusion{}).classAgree(); got != 0 {
		t.Fatalf("classAgree of an empty matrix = %v, want 0", got)
	}
	for i, name := range classNames {
		if classIndex(name) != i {
			t.Fatalf("classIndex(%q) = %d, want %d", name, classIndex(name), i)
		}
	}
	for _, class := range []monitor.Class{monitor.ClassStrict, monitor.ClassRelaxed, monitor.ClassNonDiurnal, monitor.ClassUnknown} {
		if classNames[classIndex(class.String())] != class.String() {
			t.Fatalf("served class %v has no matrix index", class)
		}
	}
}

// TestQuantilesNeverNaN guards the report's byte-stability: empty
// distributions must summarize to zeros, not NaN.
func TestQuantilesNeverNaN(t *testing.T) {
	q := summarize(nil)
	if q != (quantiles{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", q)
	}
	q = summarize([]float64{3})
	if q.n != 1 || q.p50 != 3 || q.p90 != 3 || q.max != 3 {
		t.Fatalf("summarize([3]) = %+v", q)
	}
}
