package optimize

import (
	"sync"
	"testing"

	"clite/internal/resource"
	"clite/internal/stats"
)

// TestMaximizeParallelIsByteIdentical runs the same problem with 1 and
// 8 workers (fresh identically-seeded RNGs, so the start sets match)
// and demands bit-equal results: the reduction is ordered by start
// index, so the winning ascent must not depend on scheduling.
func TestMaximizeParallelIsByteIdentical(t *testing.T) {
	topo := resource.Default()
	for seed := int64(0); seed < 8; seed++ {
		nJobs := 2 + int(seed)%3
		target := resource.EqualSplit(topo, nJobs).Vector()
		run := func(workers int) []float64 {
			return Maximize(Problem{
				Topo: topo, NJobs: nJobs,
				Objective: quadraticObjective(target),
				FrozenJob: -1,
				RNG:       stats.NewRNG(seed),
				Workers:   workers,
			})
		}
		seq := run(1)
		par := run(8)
		if len(seq) != len(par) {
			t.Fatalf("seed %d: length mismatch %d vs %d", seed, len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("seed %d coord %d: sequential %v parallel %v", seed, i, seq[i], par[i])
			}
		}
	}
}

// TestMaximizeParallelWithFrozenJob covers the dropout-copy path under
// concurrency: frozen coordinates must stay pinned in every worker.
func TestMaximizeParallelWithFrozenJob(t *testing.T) {
	topo := resource.Default()
	const nJobs = 4
	frozen := resource.EqualSplit(topo, nJobs).Jobs[1]
	target := resource.EqualSplit(topo, nJobs).Vector()
	run := func(workers int) []float64 {
		return Maximize(Problem{
			Topo: topo, NJobs: nJobs,
			Objective:   quadraticObjective(target),
			FrozenJob:   1,
			FrozenAlloc: frozen,
			RNG:         stats.NewRNG(3),
			Workers:     workers,
		})
	}
	seq := run(1)
	par := run(8)
	nres := len(topo)
	for r := 0; r < nres; r++ {
		if par[1*nres+r] != float64(frozen[r]) {
			t.Fatalf("frozen coordinate %d drifted: %v want %v", r, par[1*nres+r], frozen[r])
		}
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("coord %d: sequential %v parallel %v", i, seq[i], par[i])
		}
	}
}

// TestMaximizeConcurrentCallers exercises whole Maximize invocations
// racing each other (the ORACLE sweep and harness shards do this
// indirectly); the shared ascender pool must not leak state across
// problems.
func TestMaximizeConcurrentCallers(t *testing.T) {
	topo := resource.Default()
	var wg sync.WaitGroup
	results := make([][]float64, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nJobs := 2 + g%3
			target := resource.EqualSplit(topo, nJobs).Vector()
			results[g] = Maximize(Problem{
				Topo: topo, NJobs: nJobs,
				Objective: quadraticObjective(target),
				FrozenJob: -1,
				RNG:       stats.NewRNG(int64(g)),
				Workers:   2,
			})
		}(g)
	}
	wg.Wait()
	for g, res := range results {
		nJobs := 2 + g%3
		want := Maximize(Problem{
			Topo: topo, NJobs: nJobs,
			Objective: quadraticObjective(resource.EqualSplit(topo, nJobs).Vector()),
			FrozenJob: -1,
			RNG:       stats.NewRNG(int64(g)),
			Workers:   1,
		})
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("caller %d coord %d: got %v want %v", g, i, res[i], want[i])
			}
		}
	}
}
