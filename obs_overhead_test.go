package clite_test

import (
	"testing"

	"clite/internal/benchmarks"
)

// TestObsOverhead is the observability plane's cost contract
// (DESIGN.md §15): tapping the SLO store onto a telemetry-enabled
// CLITERun must land within 5%, and feeding a fleet's epoch barrier
// into a store must land within 10% of the detached run. Each gate
// reads the median wall-time ratio of interleaved off/on pairs, so
// background load hits both sides alike; timing is still timing, so
// each gate retries before declaring a regression.
func TestObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short mode")
	}
	gates := []struct {
		name      string
		tolerance float64
		measure   func(quick bool) benchmarks.Overhead
	}{
		{"CLITERun", 0.05, benchmarks.ObsOverheadCLITE},
		{"FleetPlace", 0.10, benchmarks.ObsOverheadFleet},
	}
	for _, g := range gates {
		g := g
		t.Run(g.name, func(t *testing.T) {
			var o benchmarks.Overhead
			for attempt := 0; attempt < 3; attempt++ {
				o = g.measure(true)
				if o.OffNs <= 0 {
					t.Fatalf("bad detached measurement: %v ns/op", o.OffNs)
				}
				if o.Ratio <= 1+g.tolerance {
					return
				}
			}
			t.Errorf("obs overhead on %s above %.0f%%: median paired ratio %+.1f%% over %d pairs (detached %.0f ns/op, attached %.0f ns/op)",
				g.name, g.tolerance*100, 100*(o.Ratio-1), o.Pairs, o.OffNs, o.OnNs)
		})
	}
}
