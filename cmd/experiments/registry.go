package main

import (
	"fmt"
	"io"
	"strings"

	"sleepnet/internal/analysis"
	"sleepnet/internal/metrics"
	"sleepnet/internal/report"
	"sleepnet/internal/world"
)

// The kinds of artifact, in the order EXPERIMENTS.md lists them.
const (
	paperKind     = "paper"
	extensionKind = "extension"
	ablationKind  = "ablation"
)

// artifact is one thing this reproduction reports: a table or figure of the
// paper's evaluation, an extension beyond it, or an ablation of a design
// choice. run writes the artifact's report to the env and returns its
// headline numbers; `experiments <id>`, BenchmarkArtifact/<id> and the
// tables of EXPERIMENTS.md all read this one definition.
type artifact struct {
	id, kind string
	// what is the artifact's one-line description in EXPERIMENTS.md.
	what string
	run  func(*env) []claim
}

// claim is one headline number: what the paper reports, the band this
// reproduction accepts, and what the run measured. Its verdict is whether
// got lies in [lo, hi].
type claim struct {
	name  string
	paper string // as the paper states it; "" when it states no number
	// lo and hi bound the accepted band, inclusive.
	lo, hi float64
	got    float64
	// verb formats got and the band; "%" prints a fraction as a percentage.
	verb string
	// gate makes the run fail when the claim misses its band.
	gate bool
}

// pct is a claim about a fraction, printed as a percentage.
func pct(name, paper string, lo, hi, got float64) claim {
	return claim{name: name, paper: paper, lo: lo, hi: hi, got: got, verb: "%"}
}

// num is a claim about a number printed with verb.
func num(name, paper, verb string, lo, hi, got float64) claim {
	return claim{name: name, paper: paper, lo: lo, hi: hi, got: got, verb: verb}
}

// gated makes c a gating claim. Gate only a claim that is in band at every
// seed 1–16 of `experiments -quick -seed N all`, so that no one seed's luck
// decides whether the run passes.
func gated(c claim) claim { c.gate = true; return c }

func (c claim) holds() bool { return c.got >= c.lo && c.got <= c.hi }

// gateMisses lists each gating claim of artifact id that misses its band.
// The experiments command exits 1 on any, and TestExperimentsDoc fails on
// any before it compares or rewrites a table.
func gateMisses(id string, claims []claim) []string {
	var missed []string
	for _, c := range claims {
		if c.gate && !c.holds() {
			missed = append(missed, fmt.Sprintf("%s: %s %s not in [%s, %s]",
				id, c.name, c.format(c.got), c.format(c.lo), c.format(c.hi)))
		}
	}
	return missed
}

func (c claim) format(v float64) string {
	if c.verb == "%" {
		return report.Pct(v)
	}
	return fmt.Sprintf(c.verb, v)
}

// failure carries an artifact's error from check to env.run.
type failure struct{ err error }

// check stops the running artifact with err, which env.run returns.
func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// must is check for a call that also returns a value.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// env is what every artifact builds its inputs from: the seed, the scale,
// and the writer its report goes to. The world and study of the world-scale
// artifacts are built on first use and shared.
type env struct {
	w    io.Writer
	seed uint64
	// blocks and days size the world-scale study; quick shrinks the other
	// populations and sweeps.
	blocks, days int
	quick        bool
	// pngDir, when set, receives fig12/fig13 as PNG.
	pngDir  string
	metrics *metrics.Registry

	world *world.World
	study *analysis.Study
}

// newEnv sizes an env; -quick caps the world at 1,000 blocks.
func newEnv(w io.Writer, seed uint64, blocks, days int, quick bool) *env {
	if quick && blocks > 1000 {
		blocks = 1000
	}
	return &env{w: w, seed: seed, blocks: blocks, days: days, quick: quick}
}

// printf writes to the artifact's report; a failed write stops it.
func (e *env) printf(format string, args ...any) {
	must(fmt.Fprintf(e.w, format, args...))
}

// run runs one artifact and returns its claims, or the error that stopped
// it.
func (e *env) run(a *artifact) (claims []claim, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("%s: %w", a.id, f.err)
		}
	}()
	return a.run(e), nil
}

// lookup returns the registered artifact with the given id.
func lookup(id string) *artifact {
	for i := range registry {
		if registry[i].id == id {
			return &registry[i]
		}
	}
	return nil
}

// renderTable renders the EXPERIMENTS.md table of one kind of artifact from
// each one's claims, in registry order.
func renderTable(kind string, claims map[string][]claim) string {
	var b strings.Builder
	b.WriteString("| Id | Artifact | Paper | Accepted | Measured | Verdict |\n|---|---|---|---|---|---|\n")
	for _, a := range registry {
		if a.kind != kind {
			continue
		}
		var paper, band, got, missed []string
		for _, c := range claims[a.id] {
			if c.paper != "" {
				paper = append(paper, c.name+": "+c.paper)
			}
			mark := ""
			if c.gate {
				mark = " (gate)"
			}
			band = append(band, fmt.Sprintf("%s in [%s, %s]%s", c.name, c.format(c.lo), c.format(c.hi), mark))
			got = append(got, c.name+": "+c.format(c.got))
			if !c.holds() {
				missed = append(missed, c.name)
			}
		}
		verdict := "holds"
		if len(missed) > 0 {
			verdict = "**misses**: " + strings.Join(missed, ", ")
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", a.id, a.what,
			cell(paper), cell(band), cell(got), verdict)
	}
	return b.String()
}

func cell(parts []string) string {
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, "; ")
}
