//go:build race

package stats

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts, so exact allocation
// checks skip under it.
const raceEnabled = true
