// Command sleeplint runs sleepnet's static-analysis suite: stdlib-only
// rules that keep the pipeline reproducible (seeded randomness, no
// wall-clock reads in output paths, deterministic map emission, epsilon
// float comparison, handled errors) and enforce the aliasing, durability
// and allocation contracts (call-scoped buffers, renames through
// internal/durable, hot-path allocation budgets). Any finding exits
// nonzero, so CI can use it as a hard gate:
//
//	sleeplint [-rules norand,floateq,...] [-json] [-list] [packages]
//
// Packages follow the go tool shape ("./...", "./internal/world"); the
// default is "./...". Findings print as file:line:col [rule] message with
// a suggested fix. Suppress a single finding with a justified directive:
//
//	//lint:allow <rule>: <why the invariant holds here>
//
// Every run audits the escape hatches instead of trusting them: each allow
// directive is listed with its location, rule, and justification, and an
// allow that no longer suppresses anything is itself a finding — stale
// exemptions must be deleted, not accumulated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sleepnet/internal/lint"
)

// jsonReport is the -json output shape: the findings, the audited allow
// directives, and the wall time of the run.
type jsonReport struct {
	Findings []lint.Finding `json:"findings"`
	Allows   []lint.Allow   `json:"allows,omitempty"`
	WallMS   int64          `json:"wall_ms"`
}

func main() {
	rulesSpec := flag.String("rules", "", "comma-separated rule subset (default: all)")
	asJSON := flag.Bool("json", false, "emit findings and the allow audit as a JSON object")
	list := flag.Bool("list", false, "list registered rules and exit")
	flag.Parse()

	if *list {
		for _, r := range lint.Rules() {
			fmt.Printf("%-12s %s\n", r.Name(), r.Doc())
		}
		return
	}

	rules, err := lint.Select(*rulesSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sleeplint:", err)
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sleeplint:", err)
		os.Exit(2)
	}
	//lint:allow nowallclock: measures the lint run itself for the -json report; no simulation output depends on it
	start := time.Now()
	pkgs, err := lint.LoadModule(cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sleeplint:", err)
		os.Exit(2)
	}

	findings, allows := lint.Run(pkgs, rules)
	//lint:allow nowallclock: measures the lint run itself for the -json report; no simulation output depends on it
	wall := time.Since(start)
	for i := range findings {
		findings[i].File = relPath(findings[i].File, cwd)
	}
	for i := range allows {
		allows[i].File = relPath(allows[i].File, cwd)
	}

	if *asJSON {
		if findings == nil {
			findings = []lint.Finding{} // encode as [], not null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Findings: findings, Allows: allows, WallMS: wall.Milliseconds()}); err != nil {
			fmt.Fprintln(os.Stderr, "sleeplint:", err)
			os.Exit(2)
		}
	} else {
		for _, a := range allows {
			status := "live"
			if !a.Used {
				status = "STALE"
			}
			fmt.Printf("%s:%d: allow %s (%s): %s\n", a.File, a.Line, a.Rule, status, a.Justification)
		}
		fmt.Fprintf(os.Stderr, "sleeplint: %d allow directive(s)\n", len(allows))
		for _, f := range findings {
			fmt.Println(f)
		}
		if n := len(findings); n > 0 {
			fmt.Fprintf(os.Stderr, "sleeplint: %d finding(s)\n", n)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// relPath rewrites path relative to the working directory for readable,
// clickable output.
func relPath(path, cwd string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}
