//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts through the pooled scratch are not exact under it.
const raceEnabled = true
