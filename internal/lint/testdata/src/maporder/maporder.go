// Package maporder is a deliberately-broken fixture: every line marked
// `want maporder` must trigger exactly the maporder rule.
package maporder

import (
	"bytes"
	"fmt"
	"sort"

	"sleepnet/internal/metrics"
)

// UnsortedKeys appends map keys and never sorts them.
func UnsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want maporder
	}
	return keys
}

// SortedKeys is the legal collect-then-sort shape.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GroupedSorted sorts through the range-value alias — also legal.
func GroupedSorted(m map[int]string) map[string][]int {
	out := make(map[string][]int)
	for n, name := range m {
		out[name] = append(out[name], n)
	}
	for _, ns := range out {
		sort.Ints(ns)
	}
	return out
}

// DirectEmit writes into a buffer in map order.
func DirectEmit(m map[string]int) string {
	var buf bytes.Buffer
	for k, v := range m {
		fmt.Fprintf(&buf, "%s=%d\n", k, v) // want maporder
	}
	return buf.String()
}

// WriterEmit calls a writer method in map order.
func WriterEmit(m map[string]int) string {
	var buf bytes.Buffer
	for k := range m {
		buf.WriteString(k) // want maporder
	}
	return buf.String()
}

// MetricsEmit mutates metrics in map order — the snapshot-nondeterminism
// shape when a histogram's float sum depends on visit order.
func MetricsEmit(reg *metrics.Registry, m map[string]float64) {
	h := reg.Histogram("last_seen", "", nil)
	for _, v := range m {
		h.Observe(v) // want maporder
	}
}
