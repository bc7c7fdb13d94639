package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles is the aggregate reported for every repeated measurement: the
// median with the first and third quartile and the sample count.
type quartiles struct {
	Q1, Median, Q3 float64
	N              int
}

// summarize sorts a copy of xs and returns its quartiles. Cut points follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spread this harness prints is the spread an outside checker computes from
// the same values. A single sample is its own quartiles.
func summarize(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return quartiles{}
	case 1:
		return quartiles{Q1: s[0], Median: s[0], Q3: s[0], N: 1}
	}
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return quartiles{Q1: cut(1), Median: cut(2), Q3: cut(3), N: n}
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }

// minTailSamples is how many samples must lie beyond a reported percentile.
const minTailSamples = 10

// percentileLadder is the percentiles the harness may report, each with the
// number of samples of which one lies beyond it.
var percentileLadder = []struct {
	p     float64
	oneIn int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile applies the reporting rule: of the ladder 50, 90, 99,
// 99.9, 99.99 it returns the highest percentile that still has at least
// minTailSamples samples beyond it, or 0 when not even the median does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, l := range percentileLadder {
		if n >= minTailSamples*l.oneIn {
			best = l.p
		}
	}
	return best
}

// percentile returns the nearest-rank p-quantile of sorted, refusing a
// percentile the sample cannot support under the rule above.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p > highestPercentile(n) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all", p*100, minTailSamples, n)
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], nil
}
