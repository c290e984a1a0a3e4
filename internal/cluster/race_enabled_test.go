//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation changes allocation counts, so exact allocation
// checks skip under it.
const raceEnabled = true
