// Package staleallow exercises the allow audit: a well-formed directive
// that no longer suppresses any finding is itself a finding, because a
// stale allow silently licenses the next real violation on its line.
package staleallow

import "time"

// Used suppresses a live finding — listed by the audit, not stale.
func Used() time.Time {
	//lint:allow nowallclock: fixture demonstrating a live suppression of a clock read
	return time.Now()
}

// Stale excuses code that no longer exists on the next line.
func Stale() int {
	//lint:allow nowallclock: this directive outlived the clock read it once excused // want staleallow
	return 42
}
