package bo

import (
	"fmt"
	"math"
	"testing"

	"clite/internal/resource"
	"clite/internal/stats"
)

// TestObjectiveValuesMatchPosterior intercepts the EI and
// posterior-mean objectives the engine hands the acquisition maximizer
// and its single-point scorers and, on every call a seeded run makes,
// demands the value equal a one-row posterior reference bit for bit —
// whether or not the call asked for a gradient: the row normalized,
// scored through PredictBatch and, for EI, closed through acq.Value.
func TestObjectiveValuesMatchPosterior(t *testing.T) {
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
		var calls [2]int
		gradCalls, mismatches, first := 0, 0, ""
		check := func(kind int, obj func(x, grad []float64) float64) func(x, grad []float64) float64 {
			return func(x, grad []float64) float64 {
				v := obj(x, grad)
				if want := scalar(kind == 1, x); math.Float64bits(v) != math.Float64bits(want) {
					if mismatches == 0 {
						first = fmt.Sprintf("objective %d (gradient %t): %v, reference %v", kind, grad != nil, v, want)
					}
					mismatches++
				}
				calls[kind]++
				if grad != nil {
					gradCalls++
				}
				return v
			}
		}
		// Workers: 1 keeps the maximizer's ascents, and so these
		// unsynchronized counters, on the test goroutine.
		e.eiFn = check(0, e.eiObjective)
		e.meanFn = check(1, e.meanObjective)
		opts := Options{Seed: seed, MaxIterations: 20, Workers: 1}
		if _, err := r.Run(bowlEval(topo, mustTarget(topo, 3, seed+100)), opts); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if mismatches > 0 {
			t.Fatalf("seed %d: %d of %d calls differ; first %s", seed, mismatches, calls[0]+calls[1], first)
		}
		if calls[0] == 0 || calls[1] == 0 || gradCalls == 0 {
			t.Fatalf("seed %d: objectives unused (EI %d, mean %d, with gradient %d)", seed, calls[0], calls[1], gradCalls)
		}
	}
}

// TestObjectiveGradientsMatchCentralDifference checks the closed-form
// gradient of every objective the engine ascends — EI, PI, UCB and the
// posterior mean — under both kernel families against central
// differences of the value-only objective, at random interior points
// of the partition space, to a relative error of 1e-5. (Zeroing the
// frozen dropout coordinates is optimize.Problem's job; its own
// central-difference test covers that.)
func TestObjectiveGradientsMatchCentralDifference(t *testing.T) {
	topo := resource.Default()
	const nJobs = 3
	acqs := []Acquisition{EI{Zeta: 0.01}, PI{Zeta: 0.01}, UCB{Beta: 2}, nil}
	for _, family := range []string{"matern52", "rbf"} {
		r, err := NewRunner(topo, nJobs)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: 3, KernelFamily: family, MaxIterations: 12, Workers: 1}
		if _, err := r.Run(bowlEval(topo, mustTarget(topo, nJobs, 7)), opts); err != nil {
			t.Fatal(err)
		}
		e := r.e
		model, err := e.fit(family)
		if err != nil {
			t.Fatal(err)
		}
		e.curModel = model
		_, e.curBestMean = e.bestByPosterior(model)
		rng := stats.NewRNG(11)
		for _, acq := range acqs {
			obj, name := e.meanObjective, "posterior mean"
			if acq != nil {
				e.acq, obj, name = acq, e.eiObjective, acq.Name()
			}
			worst := 0.0
			for p := 0; p < 20; p++ {
				// Off-lattice points: sampled configurations sit on the
				// integer lattice, where σ collapses.
				x := resource.Random(topo, nJobs, rng).Vector()
				for i := range x {
					x[i] += rng.Float64() - 0.5
				}
				grad := make([]float64, len(x))
				val := obj(x, grad)
				const h = 1e-5
				var diff, scale float64
				for i := range x {
					x[i] += h
					up := obj(x, nil)
					x[i] -= 2 * h
					down := obj(x, nil)
					x[i] += h
					fd := (up - down) / (2 * h)
					diff = math.Max(diff, math.Abs(grad[i]-fd))
					scale = math.Max(scale, math.Abs(fd))
				}
				// Below 1e-3 of the value per unit, a central difference
				// cannot resolve the gradient past its rounding error.
				if e := diff / math.Max(scale, 1e-3*math.Abs(val)); e > worst {
					worst = e
				}
			}
			t.Logf("%s × %s: worst %.3g", family, name, worst)
			if worst > 1e-5 {
				t.Errorf("%s × %s: worst relative gradient error %.3g", family, name, worst)
			}
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
