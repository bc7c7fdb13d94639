package lint

import (
	"fmt"
	"go/types"
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
// package are allowed.
type NoRand struct{}

func (NoRand) Name() string { return "norand" }
func (NoRand) Doc() string {
	return "forbid global math/rand functions and rand.NewSource in non-test internal/ code; use prf.* or prf.LegacyRand(seed)"
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
}

// underInternal reports whether the file path sits below an internal/
// directory.
func underInternal(path string) bool {
	path = strings.ReplaceAll(path, "\\", "/")
	return strings.Contains(path, "/internal/") || strings.HasPrefix(path, "internal/")
}
