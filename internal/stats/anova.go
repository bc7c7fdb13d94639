package stats

import (
	"fmt"
	"math"
)

// ANOVAResult is the outcome of an F-test.
type ANOVAResult struct {
	F      float64 // F statistic
	P      float64 // p-value, P(F_{DF1,DF2} > F)
	DF1    int     // numerator degrees of freedom
	DF2    int     // denominator degrees of freedom
	SSB    float64 // between-group / regression sum of squares
	SSW    float64 // within-group / residual sum of squares
	GrandN int     // total observations
}

// RegressionANOVA tests whether the given continuous predictors jointly
// explain the outcome: the overall F-test of the linear model
// y ~ 1 + x1 + ... + xp against the intercept-only model. This is what R's
// aov reports for continuous covariates, and what the paper's Table 5 runs
// on country-level factors.
func RegressionANOVA(y []float64, predictors ...[]float64) (ANOVAResult, error) {
	p := len(predictors)
	if p == 0 {
		return ANOVAResult{}, fmt.Errorf("stats: RegressionANOVA needs >= 1 predictor")
	}
	n := len(y)
	for i, x := range predictors {
		if len(x) != n {
			return ANOVAResult{}, fmt.Errorf("stats: predictor %d length %d != outcome length %d", i, len(x), n)
		}
	}
	design := make([][]float64, n)
	for r := 0; r < n; r++ {
		row := make([]float64, p+1)
		row[0] = 1
		for j, x := range predictors {
			row[j+1] = x[r]
		}
		design[r] = row
	}
	fit, err := FitOLS(design, y)
	if err != nil {
		return ANOVAResult{}, err
	}
	df1 := p
	df2 := n - p - 1
	if df2 <= 0 {
		return ANOVAResult{}, fmt.Errorf("stats: RegressionANOVA needs > %d observations, got %d", p+1, n)
	}
	res := ANOVAResult{DF1: df1, DF2: df2, SSB: fit.SSR, SSW: fit.SSE, GrandN: n}
	if fit.SSE <= 0 {
		res.F = math.Inf(1)
		res.P = 0
		return res, nil
	}
	res.F = (fit.SSR / float64(df1)) / (fit.SSE / float64(df2))
	res.P = FDist{D1: float64(df1), D2: float64(df2)}.SF(res.F)
	return res, nil
}

// Factor is a named continuous covariate for factorial screening.
type Factor struct {
	Name   string
	Values []float64
}

// FactorialTable holds single-factor p-values on the diagonal and pairwise
// combined-model p-values off the diagonal, as in the paper's Table 5.
type FactorialTable struct {
	Names []string
	// P[i][j] for i == j is the single-factor p-value of factor i; for
	// i != j it is the p-value of the joint model with factors i and j.
	P [][]float64
}

// FactorialANOVA screens every factor and every unordered pair of factors
// against the outcome, mirroring the paper's Table 5 construction.
func FactorialANOVA(y []float64, factors []Factor) (FactorialTable, error) {
	k := len(factors)
	if k == 0 {
		return FactorialTable{}, fmt.Errorf("stats: FactorialANOVA needs factors")
	}
	t := FactorialTable{Names: make([]string, k), P: make([][]float64, k)}
	for i := range factors {
		t.Names[i] = factors[i].Name
		t.P[i] = make([]float64, k)
		for j := range t.P[i] {
			t.P[i][j] = math.NaN()
		}
	}
	for i := 0; i < k; i++ {
		res, err := RegressionANOVA(y, factors[i].Values)
		if err != nil {
			return FactorialTable{}, fmt.Errorf("factor %q: %w", factors[i].Name, err)
		}
		t.P[i][i] = res.P
		for j := i + 1; j < k; j++ {
			pair, err := RegressionANOVA(y, factors[i].Values, factors[j].Values)
			if err != nil {
				return FactorialTable{}, fmt.Errorf("factors %q x %q: %w", factors[i].Name, factors[j].Name, err)
			}
			t.P[i][j] = pair.P
			t.P[j][i] = pair.P
		}
	}
	return t, nil
}
