package main

import (
	"bytes"
	"runtime"
	"testing"
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

// TestConfusionDerivedMetrics pins the matrix arithmetic the gated claims
// depend on against a hand-built matrix.
func TestConfusionDerivedMetrics(t *testing.T) {
	var c confusion
	// 10 strict/strict, 2 strict/relaxed, 1 strict/non, 1 strict/unknown,
	// 3 relaxed/relaxed, 2 relaxed/non, 20 non/non, 1 non/strict.
	c.m[rowStrict][colStrict] = 10
	c.m[rowStrict][colRelaxed] = 2
	c.m[rowStrict][colNon] = 1
	c.m[rowStrict][colUnknown] = 1
	c.m[rowRelaxed][colRelaxed] = 3
	c.m[rowRelaxed][colNon] = 2
	c.m[rowNon][colNon] = 20
	c.m[rowNon][colStrict] = 1

	if got := c.total(); got != 40 {
		t.Fatalf("total = %d, want 40", got)
	}
	if got := c.decided(); got != 39 {
		t.Fatalf("decided = %d, want 39", got)
	}
	wantClass := float64(10+3+20) / 39
	if got := c.classAgree(); got != wantClass {
		t.Fatalf("classAgree = %v, want %v", got, wantClass)
	}
	// either-agree: strict row strict+relaxed (12) + relaxed row
	// strict+relaxed (3) + non/non (20) = 35 of 39 decided.
	wantEither := float64(35) / 39
	if got := c.eitherAgree(); got != wantEither {
		t.Fatalf("eitherAgree = %v, want %v", got, wantEither)
	}
	// strict-agree: strict/strict (10) + relaxed row relaxed+non (5) +
	// non row relaxed+non (20) = 35 of 39 decided (non/strict and the
	// strict row's relaxed+non misses disagree on the strict boundary).
	wantStrict := float64(35) / 39
	if got := c.strictAgree(); got != wantStrict {
		t.Fatalf("strictAgree = %v, want %v", got, wantStrict)
	}
	if got := c.unknownFrac(); got != float64(1)/40 {
		t.Fatalf("unknownFrac = %v, want 1/40", got)
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
