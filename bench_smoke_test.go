package clite_test

import (
	"testing"

	"clite/internal/benchmarks"
)

// TestBenchSmoke runs the quick form of the benchmark suite so the
// harness behind `make bench` cannot rot: every measured path must
// execute and report sane numbers. Wired into `make tier1` via the
// -short run (and exercised under -race with the full suite).
func TestBenchSmoke(t *testing.T) {
	results := benchmarks.Run(benchmarks.Config{Quick: true})
	if len(results) == 0 {
		t.Fatal("empty suite")
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.Name == "" || seen[r.Name] {
			t.Errorf("bad or duplicate benchmark name %q", r.Name)
		}
		seen[r.Name] = true
		if r.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %v", r.Name, r.NsPerOp)
		}
		if r.GoBenchLine() == "" {
			t.Errorf("%s: empty bench line", r.Name)
		}
		switch r.Name {
		case "FleetPlace":
			// The fleet bench must log its acceptance metrics: live
			// throughput, the shard-scaling measurement, and a run that
			// actually decomposed into cells.
			if r.Extra["placements_per_sec"] <= 0 {
				t.Errorf("FleetPlace: no throughput recorded: %v", r.Extra)
			}
			if r.Extra["placements_per_run"] <= 0 {
				t.Errorf("FleetPlace: no placements recorded: %v", r.Extra)
			}
			if r.Extra["shard_scaling"] <= 0 {
				t.Errorf("FleetPlace: no shard-scaling measurement: %v", r.Extra)
			}
			if r.Extra["cells"] <= 1 {
				t.Errorf("FleetPlace ran without cell decomposition: %v", r.Extra)
			}
		case "ClusterPlace":
			// The cluster placement bench must log its work ledger with
			// the profile cache live: lookups happen and the repeated
			// mix hits.
			if r.Extra["placements"] <= 0 {
				t.Errorf("ClusterPlace: no placements recorded: %v", r.Extra)
			}
			if r.Extra["cache_hit_rate"] <= 0 {
				t.Errorf("ClusterPlace: repeated mixes produced no cache hits: %v", r.Extra)
			}
		}
	}
	for _, name := range []string{"ClusterPlace", "FleetPlace", "CLITERun"} {
		if !seen[name] {
			t.Errorf("%s missing from the suite", name)
		}
	}
}

// TestBenchSmokeTelemetry runs the quick suite with the telemetry knob
// on and checks the instrumented bench actually recorded a timeline —
// and that the flag is reflected in the result metadata cmd/bench
// serializes, so -compare can refuse to mix instrumented and
// uninstrumented files.
func TestBenchSmokeTelemetry(t *testing.T) {
	for _, r := range benchmarks.Run(benchmarks.Config{Quick: true, Telemetry: true}) {
		if r.Name != "CLITERun" {
			continue
		}
		if r.Extra["telemetry"] != 1 {
			t.Errorf("CLITERun telemetry flag not recorded: %v", r.Extra)
		}
		if r.Extra["trace_events_per_run"] <= 0 {
			t.Errorf("instrumented CLITERun produced no trace events: %v", r.Extra)
		}
		return
	}
	t.Fatal("CLITERun missing from the telemetry suite")
}
