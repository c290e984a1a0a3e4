package cluster

import (
	"testing"

	"clite/internal/workload"
)

// TestCacheHitPlaceAllocs keeps the verify window allocation-free: once
// a scheduler is warm, a cache-hit Place (assess, one verify window on
// the reset verifier machine, admit) and the matching Remove allocate
// only the window's Observation — its partition copy and four per-job
// slices — and never a machine, an RNG source or a workload table.
func TestCacheHitPlaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	// maxHitAllocs is the measured count for this two-job mix: three
	// for the Observation's Config (the job slice and two allocations)
	// and four for its P95/Throughput/QoSMet/NormPerf slices.
	const maxHitAllocs = 7
	s := New(Options{Nodes: 1, Seed: 5, ScreenIterations: 8, ScreenWorkers: 1})
	if _, err := s.Place(Request{Workload: "swaptions"}); err != nil {
		t.Fatal(err)
	}
	req := Request{Workload: "memcached", Load: 0.2}
	cycle := func() {
		p, err := s.Place(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(p.Node, req); err != nil {
			t.Fatal(err)
		}
	}
	// The first cycle screens and caches the mix; the second is the
	// first hit and sizes the verify machine and the scheduler buffers.
	cycle()
	cycle()
	before := s.Stats()
	allocs := testing.AllocsPerRun(20, cycle)
	after := s.Stats()
	if after.Screens != before.Screens || after.VerifyWindows-before.VerifyWindows != 21 {
		t.Fatalf("measured cycles were not all verified cache hits: %+v then %+v", before, after)
	}
	t.Logf("cache-hit Place+Remove: %v allocs", allocs)
	if allocs > maxHitAllocs {
		t.Errorf("cache-hit Place+Remove allocates %v times, want at most %d", allocs, maxHitAllocs)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = workload.ByName("memcached") }); n != 0 {
		t.Errorf("workload.ByName allocates %v times, want 0", n)
	}
}
