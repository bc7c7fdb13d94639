package report

import (
	"fmt"
	"strconv"
	"strings"

	"sleepnet/internal/metrics"
)

// Metrics renders a snapshot as aligned text tables: one for counters, one
// for histograms (count / sum / mean). An empty snapshot renders a single
// placeholder line so callers can print unconditionally.
func Metrics(s metrics.Snapshot) string {
	if s.Empty() {
		return "(no metrics recorded)\n"
	}
	var b strings.Builder
	if len(s.Counters) > 0 {
		rows := make([][]string, 0, len(s.Counters))
		for _, c := range s.Counters {
			rows = append(rows, []string{c.Name, strconv.FormatInt(c.Value, 10)})
		}
		b.WriteString(Table([]string{"counter", "value"}, rows))
	}
	if len(s.Histograms) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		rows := make([][]string, 0, len(s.Histograms))
		for _, h := range s.Histograms {
			rows = append(rows, []string{
				h.Name,
				h.Unit,
				strconv.FormatInt(h.Count, 10),
				F(h.Sum),
				F(h.Mean()),
			})
		}
		b.WriteString(Table([]string{"histogram", "unit", "count", "sum", "mean"}, rows))
	}
	return b.String()
}

// RunCost renders the handful of headline cost counters of a campaign
// snapshot (probes, rounds, blocks) as a short single-line-per-item list —
// the view cmd/inspect shows for saved datasets. Counters absent from the
// snapshot are skipped.
func RunCost(s metrics.Snapshot) string {
	var b strings.Builder
	for _, name := range []string{
		"trinocular.probes_sent",
		"trinocular.rounds",
		"trinocular.retries",
		"trinocular.rounds_rate_limited",
		"pipeline.blocks_measured",
		"pipeline.failed_rounds",
		"analysis.blocks_measured",
		"analysis.blocks_quarantined",
		"dsp.fft_calls",
	} {
		if v, ok := s.Lookup(name); ok {
			fmt.Fprintf(&b, "  %-32s %d\n", name, v)
		}
	}
	return b.String()
}
