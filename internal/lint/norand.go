package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// NoRand forbids the process-seeded global math/rand functions (rand.Intn,
// rand.Float64, rand.Seed, ...) in non-test code under internal/. Global
// rand draws from a shared, launch-time-seeded stream, so two runs of the
// same seed diverge — the exact nondeterminism the golden same-seed test
// exists to prevent. It forbids rand.NewSource there too: its seeding runs
// 1,841 LCG steps however few draws follow, and prf.LegacyRand gives the
// same stream, seeded in O(1), so a stream has one way to be seeded.
// Methods on *rand.Rand, rand.New over another source and the canonical prf
// package are allowed. Outside internal/prf it also forbids, in any
// non-test file, an integer literal equal to one of the SplitMix64
// finalizer's multipliers: a private copy of the mixer is how a subsystem's
// draws drift from the canonical chaining unnoticed.
type NoRand struct{}

func (NoRand) Name() string { return "norand" }
func (NoRand) Doc() string {
	return "forbid global math/rand functions and rand.NewSource in non-test internal/ code, and SplitMix64 multipliers outside internal/prf; use prf.* or prf.LegacyRand(seed)"
}

// splitMixMultipliers are the SplitMix64 finalizer's two multipliers, which
// only internal/prf spells out.
var splitMixMultipliers = map[uint64]bool{
	//lint:allow norand: the rule's own table of the constants it looks for, not a mixer
	0xbf58476d1ce4e5b9: true, 0x94d049bb133111eb: true,
}

// norandAllowed lists the math/rand package-level names that neither draw
// from the global stream nor seed a source eagerly.
var norandAllowed = map[string]bool{
	"New": true, "NewZipf": true,
}

func (NoRand) Check(p *Pass) {
	for id, obj := range p.Info.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		pkgPath := obj.Pkg().Path()
		if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
			continue
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() != nil {
			continue // types, vars, and *rand.Rand methods are fine
		}
		if norandAllowed[fn.Name()] {
			continue
		}
		file := p.Fset.Position(id.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") || !underInternal(file) {
			continue
		}
		if fn.Name() == "NewSource" {
			p.Report(id, "norand",
				"rand.NewSource seeds its whole 607-word state up front, however few draws follow",
				"use prf.LegacyRand(seed): the same stream, seeded in O(1)")
			continue
		}
		p.Report(id, "norand",
			fmt.Sprintf("global math/rand.%s draws from the process-seeded stream and breaks same-seed reproducibility", fn.Name()),
			fmt.Sprintf("use prf.Hash/prf.Float keyed by the run seed, or r := prf.LegacyRand(seed); r.%s(...)", fn.Name()))
	}
	for _, f := range p.Files {
		file := strings.ReplaceAll(p.Fset.Position(f.Pos()).Filename, "\\", "/")
		if strings.HasSuffix(file, "_test.go") || strings.Contains(file, "/internal/prf/") || strings.HasPrefix(file, "internal/prf/") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.INT {
				return true
			}
			if v, err := strconv.ParseUint(lit.Value, 0, 64); err == nil && splitMixMultipliers[v] {
				p.Report(lit, "norand",
					"a SplitMix64 multiplier outside internal/prf: a private copy of the mixer",
					"call prf.Mix, prf.Hash, prf.Float or prf.LegacyFloat")
			}
			return true
		})
	}
}

// underInternal reports whether the file path sits below an internal/
// directory.
func underInternal(path string) bool {
	path = strings.ReplaceAll(path, "\\", "/")
	return strings.Contains(path, "/internal/") || strings.HasPrefix(path, "internal/")
}
