package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one testdata/src package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := NewLoader().LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", name, e)
	}
	return pkg
}

// wantedFindings scans fixture sources for `// want rule [rule...]`
// markers and returns the expected "file:line rule" keys.
func wantedFindings(t *testing.T, dir string) map[string]int {
	t.Helper()
	want := make(map[string]int)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			for _, rule := range strings.Fields(text[i+len("// want "):]) {
				want[keyOf(path, line, rule)]++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func keyOf(file string, line int, rule string) string {
	return filepath.Base(file) + ":" + itoa(line) + " " + rule
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestFixturesGolden runs the FULL registry over every fixture package and
// requires the findings to match the `// want` annotations exactly — so
// each deliberately-broken fixture triggers its intended rule and nothing
// else.
func TestFixturesGolden(t *testing.T) {
	fixtures := []string{
		"norand", "nowallclock", "maporder", "floateq", "errdrop", "allowfix",
		"lockbalance", "atomicmix", "aliasretain", "durable", "fsyncorder",
		"hotalloc", "ctxleak", "staleallow",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			got := make(map[string]int)
			// The audit runner is the strictest mode: stale allows report
			// too, so fixtures must keep every directive live (or mark it
			// with a staleallow want).
			findings, _ := RunAudit([]*Package{pkg}, Rules())
			for _, f := range findings {
				got[keyOf(f.File, f.Line, f.Rule)]++
			}
			want := wantedFindings(t, pkg.Dir)
			for k, n := range want {
				if got[k] != n {
					t.Errorf("want %d finding(s) %q, got %d", n, k, got[k])
				}
			}
			for k, n := range got {
				if want[k] != n {
					t.Errorf("unexpected finding %q (x%d)", k, n)
				}
			}
		})
	}
}

// TestRuleIsolation re-runs each broken fixture with only its intended rule
// selected and checks the finding count survives -rules filtering.
func TestRuleIsolation(t *testing.T) {
	for _, name := range []string{
		"norand", "nowallclock", "maporder", "floateq", "errdrop",
		"lockbalance", "atomicmix", "aliasretain", "fsyncorder", "hotalloc", "ctxleak",
	} {
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			rules, err := Select(name)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run([]*Package{pkg}, rules)
			if len(findings) == 0 {
				t.Fatalf("rule %s found nothing in its own fixture", name)
			}
			for _, f := range findings {
				if f.Rule != name {
					t.Errorf("selected only %s but got finding from %s: %s", name, f.Rule, f)
				}
			}
		})
	}
}

// TestSelfCheck runs the whole registry over the whole module: sleeplint
// must be clean on its own source (and everything else in the tree).
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow")
	}
	root, _, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModuleParallel(root, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lintPkgSeen bool
	for _, p := range pkgs {
		if p.Path == "sleepnet/internal/lint" {
			lintPkgSeen = true
		}
	}
	if !lintPkgSeen {
		t.Fatalf("self-check did not load internal/lint (loaded %d packages)", len(pkgs))
	}
	findings := Run(pkgs, Rules())
	for _, f := range findings {
		t.Errorf("module not lint-clean: %s", f)
	}
}

// TestAllowRequiresJustification pins the escape-hatch policy directly:
// a bare directive suppresses nothing and is itself reported.
func TestAllowRequiresJustification(t *testing.T) {
	pkg := loadFixture(t, "allowfix")
	findings := Run([]*Package{pkg}, Rules())

	var directiveFindings, clockFindings int
	for _, f := range findings {
		switch f.Rule {
		case "allowdirective":
			directiveFindings++
		case "nowallclock":
			clockFindings++
		}
	}
	// Two malformed directives (unjustified + unknown rule), each leaving
	// its clock read unsuppressed; the two justified ones suppress theirs.
	if directiveFindings != 2 {
		t.Errorf("want 2 allowdirective findings, got %d", directiveFindings)
	}
	if clockFindings != 2 {
		t.Errorf("want 2 unsuppressed nowallclock findings, got %d", clockFindings)
	}
}

func TestSplitDirective(t *testing.T) {
	cases := []struct {
		in, rule, why string
	}{
		{"norand: seeded upstream by the campaign config", "norand", "seeded upstream by the campaign config"},
		{"floateq -- exact tie-break", "floateq", "exact tie-break"},
		{"maporder — sorted by caller", "maporder", "sorted by caller"},
		{"norand", "norand", ""},
		{"norand // trailing comment is not a justification", "norand", ""},
	}
	for _, c := range cases {
		rule, why := splitDirective(c.in)
		if rule != c.rule || why != c.why {
			t.Errorf("splitDirective(%q) = (%q, %q), want (%q, %q)", c.in, rule, why, c.rule, c.why)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Rules()) {
		t.Fatalf("Select(\"\") = %d rules, err %v", len(all), err)
	}
	two, err := Select("norand, floateq")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select subset = %d rules, err %v", len(two), err)
	}
	if _, err := Select("nosuchrule"); err == nil {
		t.Fatal("Select accepted an unknown rule")
	}
}

// TestFindingsSorted pins the deterministic output order.
func TestFindingsSorted(t *testing.T) {
	pkg := loadFixture(t, "norand")
	findings := Run([]*Package{pkg}, Rules())
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	if !sorted {
		t.Errorf("findings not sorted: %v", findings)
	}
}

// TestFindingString pins the file:line:col [rule] message format CI greps.
func TestFindingString(t *testing.T) {
	f := Finding{File: "x/y.go", Line: 3, Col: 7, Rule: "norand", Message: "bad", Suggestion: "use prf"}
	want := "x/y.go:3:7: [norand] bad (fix: use prf)"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
