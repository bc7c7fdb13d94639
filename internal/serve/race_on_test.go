//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts through encoding/json are not exact under it.
const raceEnabled = true
