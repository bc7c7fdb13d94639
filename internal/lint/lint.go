// Package lint is sleepnet's dependency-free static-analysis framework:
// a package loader on stdlib go/parser + go/types plus a registry of rules
// that enforce the repository's reproducibility invariants (seeded
// randomness, no wall-clock reads in output paths, deterministic map
// emission order, epsilon float comparison, handled errors) and three
// contracts the hot and durable paths rest on (call-scoped buffers are not
// retained, renames go through internal/durable, //lint:hotpath functions
// do not allocate).
//
// The paper's results hinge on same-seed runs being byte-identical; these
// invariants are exactly the ones reviewer vigilance keeps missing, so
// cmd/sleeplint wires the registry into CI as a hard gate.
//
// Escape hatch: a finding may be suppressed with a directive comment
//
//	//lint:allow <rule>: <justification>
//
// placed on the offending line or alone on the line above it. The
// justification is mandatory (and checked): an allow without one is itself
// a finding, and so is an allow that no longer suppresses anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported rule violation.
type Finding struct {
	Pos  token.Position `json:"-"`
	File string         `json:"file"`
	Line int            `json:"line"`
	Col  int            `json:"col"`
	Rule string         `json:"rule"`
	// Message states the violation.
	Message string `json:"message"`
	// Suggestion is the suggested edit, in prose ("-fix"-style guidance).
	Suggestion string `json:"suggestion,omitempty"`
}

// String renders the canonical file:line:col [rule] message form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
	if f.Suggestion != "" {
		s += " (fix: " + f.Suggestion + ")"
	}
	return s
}

// Pass carries one type-checked package through the rules.
type Pass struct {
	Fset *token.FileSet
	// PkgPath is the package's import path ("sleepnet/internal/world").
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info
	// Files are the parsed non-test files of the package.
	Files []*ast.File

	findings *[]Finding
	allows   map[string][]*allowDirective // filename -> directives

	// hotpath marks the functions in this package carrying a
	// //lint:hotpath annotation (set by collectAnnotations).
	hotpath map[*ast.FuncDecl]bool
	// anns is the module-wide annotation index shared by every pass of a
	// Run, so cross-package aliasing contracts are visible to callers.
	anns *Annotations
}

// Report records a finding at n's position unless an allow directive
// covers it.
func (p *Pass) Report(n ast.Node, rule, message, suggestion string) {
	pos := p.Fset.Position(n.Pos())
	for _, d := range p.allows[pos.Filename] {
		if d.rule == rule && d.covers(pos.Line) && d.justified() {
			d.used = true
			return
		}
	}
	*p.findings = append(*p.findings, Finding{
		Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Rule: rule, Message: message, Suggestion: suggestion,
	})
}

// TypeOf returns the type of e, or nil when type information is missing.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// IsTestFile reports whether the file holding n is a _test.go file.
// The loader skips test files, but fixtures may re-enable them.
func (p *Pass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// Rule is one self-contained invariant check.
type Rule interface {
	// Name is the registry key ("norand").
	Name() string
	// Doc is a one-line description for -rules listings and DESIGN.md.
	Doc() string
	// Check inspects one package and reports findings on the pass.
	Check(p *Pass)
}

// Rules returns the full registry in stable order.
func Rules() []Rule {
	return []Rule{
		NoRand{},
		NoWallClock{},
		MapOrder{},
		FloatEq{},
		ErrDrop{},
		AliasRetain{},
		FsyncOrder{},
		HotAlloc{},
	}
}

// RuleNames returns the registered rule names in stable order.
func RuleNames() []string {
	var out []string
	for _, r := range Rules() {
		out = append(out, r.Name())
	}
	return out
}

// Select resolves a comma-separated rule list ("norand,floateq") against
// the registry. An empty spec selects every rule.
func Select(spec string) ([]Rule, error) {
	all := Rules()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	var out []Rule
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", name, strings.Join(RuleNames(), ", "))
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty rule selection %q", spec)
	}
	return out, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	rule string
	// line is the line the comment sits on; alone selects whether it also
	// covers the next line (a directive on its own line annotates the
	// statement below it).
	line          int
	alone         bool
	justification string
	// used flips when the directive suppresses at least one finding; an
	// unused directive is stale and flagged by Run's allow audit.
	used bool
	// file is the position filename, kept for audit listings.
	file string
}

func (d allowDirective) covers(line int) bool {
	return line == d.line || (d.alone && line == d.line+1)
}

// justified reports whether the directive carries a real justification: at
// least ten characters of explanation after the rule name.
func (d allowDirective) justified() bool {
	return len(strings.TrimSpace(d.justification)) >= 10
}

const allowPrefix = "//lint:allow "

// collectAllows parses every //lint:allow directive in the pass's files and
// reports malformed ones (missing justification, unknown rule) as findings
// under the "allowdirective" pseudo-rule. Malformed directives suppress
// nothing.
func (p *Pass) collectAllows() {
	known := make(map[string]bool)
	for _, name := range RuleNames() {
		known[name] = true
	}
	p.allows = make(map[string][]*allowDirective)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				pos := p.Fset.Position(c.Pos())
				d := &allowDirective{file: pos.Filename, line: pos.Line,
					alone: pos.Column == 1 || onlyCommentOnLine(p.Fset, f, c)}
				// Split "rule: why" / "rule -- why" / "rule — why".
				rule, why := splitDirective(rest)
				d.rule, d.justification = rule, why
				if !known[d.rule] {
					p.Report(c, "allowdirective",
						fmt.Sprintf("//lint:allow names unknown rule %q", d.rule),
						"use one of: "+strings.Join(RuleNames(), ", "))
					continue
				}
				if !d.justified() {
					p.Report(c, "allowdirective",
						fmt.Sprintf("//lint:allow %s requires a justification (\"//lint:allow %s: why this is safe\")", d.rule, d.rule),
						"append a colon and an explanation of why the invariant holds here")
					continue
				}
				p.allows[pos.Filename] = append(p.allows[pos.Filename], d)
			}
		}
	}
}

// splitDirective separates the rule name from its justification, accepting
// ':', "--", or an em-dash as the separator, or plain whitespace. A nested
// " // " starts a new comment and is not part of the justification.
func splitDirective(rest string) (rule, why string) {
	if i := strings.Index(rest, " // "); i >= 0 {
		rest = rest[:i]
	}
	for _, sep := range []string{":", "--", "—"} {
		if i := strings.Index(rest, sep); i >= 0 {
			return strings.TrimSpace(rest[:i]), strings.TrimSpace(rest[i+len(sep):])
		}
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i:])
	}
	return rest, ""
}

// onlyCommentOnLine reports whether c is the only token on its line (a
// standalone directive annotating the next line, rather than a trailing
// comment on a code line). A node merely spanning the line (a multi-line
// call) does not count; a token starting or ending on the line before the
// comment does.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.Pos() < c.Pos() && fset.Position(n.Pos()).Line == line {
			alone = false
			return false
		}
		if n.End() <= c.Pos() && fset.Position(n.End()-1).Line == line {
			alone = false
			return false
		}
		return true
	})
	return alone
}

// Allow is one well-formed //lint:allow directive as listed by the audit.
type Allow struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Rule          string `json:"rule"`
	Justification string `json:"justification"`
	// Used reports whether the directive suppressed at least one finding
	// in this run; a well-formed, unused directive is stale.
	Used bool `json:"used"`
}

// Run executes the rules over the packages and audits the escape hatches
// while it is at it. It returns the findings sorted by file, line, column
// and rule, and every well-formed //lint:allow directive sorted by file,
// line and rule. A directive that suppressed nothing is itself a finding
// under the "staleallow" pseudo-rule — but only when its rule was among the
// rules run, since an unexercised rule cannot prove its allows stale.
func Run(pkgs []*Package, rules []Rule) ([]Finding, []Allow) {
	var findings []Finding
	shared := newAnnotations()
	passes := make([]*Pass, 0, len(pkgs))
	// Phase 1: parse directives and contract annotations everywhere first,
	// so cross-package aliasing contracts are indexed before any caller's
	// rules run (package order must not matter).
	for _, pkg := range pkgs {
		pass := &Pass{
			Fset: pkg.Fset, PkgPath: pkg.Path, Pkg: pkg.Types,
			Info: pkg.Info, Files: pkg.Files, findings: &findings,
			anns: shared,
		}
		pass.collectAllows()
		pass.collectAnnotations(shared)
		passes = append(passes, pass)
	}
	// Phase 2: run the rules.
	for _, pass := range passes {
		for _, r := range rules {
			r.Check(pass)
		}
	}
	ran := make(map[string]bool, len(rules))
	for _, r := range rules {
		ran[r.Name()] = true
	}
	var allows []Allow
	for _, pass := range passes {
		for _, ds := range pass.allows {
			for _, d := range ds {
				allows = append(allows, Allow{
					File: d.file, Line: d.line, Rule: d.rule,
					Justification: d.justification, Used: d.used,
				})
				if !d.used && ran[d.rule] {
					findings = append(findings, Finding{
						File: d.file, Line: d.line, Col: 1,
						Rule:       "staleallow",
						Message:    fmt.Sprintf("//lint:allow %s suppresses nothing — the finding it excused is gone", d.rule),
						Suggestion: "delete the directive (or re-justify it against a finding that exists)",
					})
				}
			}
		}
	}
	sort.Slice(allows, func(i, j int) bool {
		a, b := allows[i], allows[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return findings, allows
}
