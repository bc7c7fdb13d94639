// Package report renders experiment results as aligned text tables and
// ASCII charts — the terminal equivalents of the paper's tables and
// figures, used by cmd/experiments, cmd/sleepscan and the examples — and
// the paper's study tables of a measured study (study.go).
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table renders an aligned text table with a header rule.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Bar renders one horizontal bar scaled to width for value in [0, max].
func Bar(value, max float64, width int) string {
	if width <= 0 || max <= 0 || value < 0 || math.IsNaN(value) {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// BarChart renders labeled horizontal bars with values.
func BarChart(labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		return "barchart: label/value mismatch\n"
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		fmt.Fprintf(&b, "%-*s %8.4f |%s\n", maxL, labels[i], v, Bar(v, maxV, width))
	}
	return b.String()
}

// Series renders a y(x) line chart of values as ASCII, height rows tall.
// The y-range is [min, max] of the data (or [0,1] when flat).
func Series(values []float64, width, height int) string {
	if len(values) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	//lint:allow floateq: flat-data guard; only exact equality collapses the y-range to zero width
	if max == min {
		max = min + 1
	}
	// Downsample to width columns by averaging.
	cols := make([]float64, width)
	for c := 0; c < width; c++ {
		lo := c * len(values) / width
		hi := (c + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for i := lo; i < hi && i < len(values); i++ {
			s += values[i]
		}
		cols[c] = s / float64(hi-lo)
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c, v := range cols {
		r := int((v - min) / (max - min) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		grid[height-1-r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.3f +%s\n", max, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(&b, "%8s |%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%8.3f +%s\n", min, strings.Repeat("-", width))
	return b.String()
}

// grayRamp maps density 0..1 to characters, darkest last.
const grayRamp = " .:-=+*#%@"

// Heatmap renders a 2D count grid (rows x cols, row 0 at the top) with a
// logarithmic grayscale ramp, suitable for the world maps of Figs 12–13.
func Heatmap(counts [][]int) string {
	maxC := 0
	for _, row := range counts {
		for _, c := range row {
			if c > maxC {
				maxC = c
			}
		}
	}
	var b strings.Builder
	if maxC == 0 {
		return "(empty heatmap)\n"
	}
	logMax := math.Log1p(float64(maxC))
	for _, row := range counts {
		for _, c := range row {
			idx := 0
			if c > 0 {
				idx = int(math.Log1p(float64(c)) / logMax * float64(len(grayRamp)-1))
				if idx == 0 {
					idx = 1
				}
			}
			b.WriteByte(grayRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FractionMap renders a 2D fraction grid in [0,1] (NaN = blank) with a
// linear ramp.
func FractionMap(fracs [][]float64) string {
	var b strings.Builder
	for _, row := range fracs {
		for _, f := range row {
			switch {
			case math.IsNaN(f):
				b.WriteByte(' ')
			default:
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
				idx := int(f * float64(len(grayRamp)-1))
				if idx == 0 && f > 0 {
					idx = 1
				}
				b.WriteByte(grayRamp[idx])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string {
	if math.IsNaN(f) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", f*100)
}

// F formats a float compactly.
func F(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	a := math.Abs(v)
	switch {
	case a != 0 && (a < 1e-3 || a >= 1e6):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
