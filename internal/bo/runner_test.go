package bo

import (
	"fmt"
	"math"
	"testing"

	"clite/internal/resource"
)

// TestBatchedEIMatchesScalar intercepts the batched EI and
// posterior-mean objectives the engine hands the acquisition maximizer
// and its single-point scorers and, on every batch a seeded run
// produces, demands each output equal a single-point reference bit for
// bit: the row normalized, scored as a one-row batch and, for EI,
// closed through acq.Value. Batching restructures only the scheduling
// across probe points, never a point's operation chain.
func TestBatchedEIMatchesScalar(t *testing.T) {
	topo := resource.Small()
	for seed := int64(1); seed <= 4; seed++ {
		r, err := NewRunner(topo, 3)
		if err != nil {
			t.Fatal(err)
		}
		e := r.e
		scalar := func(meanOnly bool, x []float64) float64 {
			mean, std, err := predictOne(e.curModel, e.topo.NormalizeInto(nil, x))
			if err != nil {
				return math.Inf(-1)
			}
			if meanOnly {
				return mean
			}
			return e.acq.Value(mean, std, e.curBestMean)
		}
		var rows [2]int
		mismatches, first := 0, ""
		check := func(kind int, batch func([][]float64, []float64)) func([][]float64, []float64) {
			return func(xs [][]float64, out []float64) {
				batch(xs, out)
				for i, x := range xs {
					if want := scalar(kind == 1, x); math.Float64bits(out[i]) != math.Float64bits(want) {
						if mismatches == 0 {
							first = fmt.Sprintf("objective %d row %d: batched %v, scalar %v", kind, i, out[i], want)
						}
						mismatches++
					}
				}
				rows[kind] += len(xs)
			}
		}
		// Workers: 1 keeps the maximizer's ascents, and so these
		// unsynchronized counters, on the test goroutine.
		e.eiBatchFn = check(0, e.eiBatch)
		e.meanBatchFn = check(1, e.meanBatch)
		opts := Options{Seed: seed, MaxIterations: 20, Workers: 1}
		if _, err := r.Run(bowlEval(topo, mustTarget(topo, 3, seed+100)), opts); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if mismatches > 0 {
			t.Fatalf("seed %d: %d of %d rows differ; first %s", seed, mismatches, rows[0]+rows[1], first)
		}
		if rows[0] == 0 || rows[1] == 0 {
			t.Fatalf("seed %d: batched objectives unused (EI rows %d, mean rows %d)", seed, rows[0], rows[1])
		}
	}
}

// TestRunnerReuseMatchesFreshRuns drives one Runner through several
// runs (alternating worker counts to exercise the pool rebuild) and
// demands each matches a fresh bo.Run byte for byte: arena reuse must
// be invisible in every decision.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	topo := resource.Small()
	r, err := NewRunner(topo, 3)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		opts := Options{Seed: seed, MaxIterations: 16, Workers: int(seed%2)*3 + 1}
		want := traceOf(t, topo, 3, opts)
		res, err := r.Run(bowlEval(topo, mustTarget(topo, 3, opts.Seed+100)), opts)
		if err != nil {
			t.Fatalf("Runner.Run: %v", err)
		}
		got := runTrace{
			bestKey:   res.Best.Config.Key(),
			bestScore: res.Best.Eval.Score,
			iters:     res.Iterations,
			converged: res.Converged,
		}
		for _, s := range res.Samples {
			got.keys = append(got.keys, s.Config.Key())
			got.scores = append(got.scores, s.Eval.Score)
		}
		diffTraces(t, "reused runner vs fresh run", want, got)
	}
}

// TestRunnerSteadyStateAllocs pins the warmed Runner's allocation
// behaviour: with an allocation-free evaluator, a whole run through
// reused arenas must stay within a small fixed budget (the per-run
// RNG and acquisition boxing plus a handful of per-iteration closure
// captures) — nothing may scale with samples or iterations anymore.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool shedding)")
	}
	topo := resource.Small()
	const nJobs = 2
	target := mustTarget(topo, nJobs, 55)
	norm := 0.0
	for _, a := range target.Jobs {
		for r := range a {
			u := float64(topo[r].Units)
			norm += u * u
		}
	}
	// The engine copies JobPerf out of every Evaluation, so the
	// evaluator may reuse one slice across calls.
	jobPerf := make([]float64, nJobs)
	eval := func(cfg resource.Config) (Evaluation, error) {
		var d float64
		for j := range cfg.Jobs {
			var dj float64
			for r := range cfg.Jobs[j] {
				diff := float64(cfg.Jobs[j][r] - target.Jobs[j][r])
				dj += diff * diff
			}
			jobPerf[j] = 1 - dj/norm
			d += dj
		}
		return Evaluation{Score: 1 - d/norm, JobPerf: jobPerf}, nil
	}
	r, err := NewRunner(topo, nJobs)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	opts := Options{Seed: 7, MaxIterations: 6, Workers: 1}
	run := func() {
		if _, err := r.Run(eval, opts); err != nil {
			t.Fatalf("Runner.Run: %v", err)
		}
	}
	run() // warm the arenas
	allocs := testing.AllocsPerRun(5, run)
	// ~6 bootstrap evaluations + 6 iterations + the closing fit; the
	// old engine allocated ~850 per iteration. The budget covers the
	// per-run fixtures (RNG, acquisition boxing, telemetry lookups)
	// and a few closure captures per Maximize call.
	if allocs > 60 {
		t.Fatalf("steady-state Run allocated %.1f times (want ≤ 60 fixed costs)", allocs)
	}
}
