package bo

import (
	"math"
	"reflect"
	"testing"

	"clite/internal/gp"
	"clite/internal/resource"
	"clite/internal/stats"
)

// runTrace captures everything downstream code consumes from a Run.
type runTrace struct {
	keys      []string
	scores    []float64
	bestKey   string
	bestScore float64
	iters     int
	converged bool
}

func traceOf(t *testing.T, topo resource.Topology, nJobs int, opts Options) runTrace {
	t.Helper()
	target := mustTarget(topo, nJobs, opts.Seed+100)
	res, err := Run(topo, nJobs, bowlEval(topo, target), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := runTrace{
		bestKey:   res.Best.Config.Key(),
		bestScore: res.Best.Eval.Score,
		iters:     res.Iterations,
		converged: res.Converged,
	}
	for _, s := range res.Samples {
		tr.keys = append(tr.keys, s.Config.Key())
		tr.scores = append(tr.scores, s.Eval.Score)
	}
	return tr
}

func diffTraces(t *testing.T, label string, a, b runTrace) {
	t.Helper()
	if len(a.keys) != len(b.keys) {
		t.Fatalf("%s: sample counts diverged: %d vs %d", label, len(a.keys), len(b.keys))
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.scores[i] != b.scores[i] {
			t.Fatalf("%s: sample %d diverged: %s (%v) vs %s (%v)",
				label, i, a.keys[i], a.scores[i], b.keys[i], b.scores[i])
		}
	}
	if a.bestKey != b.bestKey || a.bestScore != b.bestScore {
		t.Fatalf("%s: best diverged: %s (%v) vs %s (%v)",
			label, a.bestKey, a.bestScore, b.bestKey, b.bestScore)
	}
	if a.iters != b.iters || a.converged != b.converged {
		t.Fatalf("%s: termination diverged: (%d,%v) vs (%d,%v)",
			label, a.iters, a.converged, b.iters, b.converged)
	}
}

// TestIncrementalFitMatchesRefit pins the engine's incremental
// surrogate (rank-1 Cholesky appends against the retained grid of
// models) to a from-scratch reference at every iteration of seeded
// runs. The evaluator runs right after the engine publishes the
// iteration's fitted model, so it checks that model against a fresh
// gp.Pool Conditioned on the same samples (below mleMinSamples, the
// fixed-hyperparameter model refit from scratch): the same
// hyperparameters must be selected, and the posterior mean and
// variance must agree within 1e-10 at every sample and at 64 random
// points.
func TestIncrementalFitMatchesRefit(t *testing.T) {
	const (
		nJobs  = 3
		probes = 64
		tol    = 1e-10
	)
	topo := resource.Small()
	for seed := int64(1); seed <= 4; seed++ {
		r, err := NewRunner(topo, nJobs)
		if err != nil {
			t.Fatal(err)
		}
		e := r.e
		opts := Options{Seed: seed, MaxIterations: 20}
		family := opts.kernelFamily()
		bowl := bowlEval(topo, mustTarget(topo, nJobs, seed+100))
		rng := stats.NewRNG(seed + 1000)
		probe := make([]float64, len(e.topo)*nJobs)
		checked := 0
		eval := func(cfg resource.Config) (Evaluation, error) {
			if inc := e.curModel; inc != nil {
				n := len(e.samples)
				xs, ys := e.normXs[:n], e.ys[:n]
				var ref *gp.GP
				var err error
				if n < mleMinSamples {
					if ref, err = fixedHyperModel(family); err == nil {
						err = ref.Fit(xs, ys)
					}
				} else {
					var pool *gp.Pool
					if pool, err = gp.NewPool(family, 1); err == nil {
						if err = pool.Condition(xs, ys); err == nil {
							ref, err = pool.Best()
						}
					}
				}
				if err != nil {
					t.Fatalf("seed %d n=%d: reference fit: %v", seed, n, err)
				}
				if !reflect.DeepEqual(inc.Kernel(), ref.Kernel()) {
					t.Fatalf("seed %d n=%d: incremental kernel %+v, refit %+v", seed, n, inc.Kernel(), ref.Kernel())
				}
				points := append([][]float64(nil), xs...)
				for i := 0; i < probes; i++ {
					for d := range probe {
						probe[d] = rng.Float64()
					}
					points = append(points, append([]float64(nil), probe...))
				}
				for i, x := range points {
					im, is, err1 := predictOne(inc, x)
					rm, rs, err2 := predictOne(ref, x)
					if err1 != nil || err2 != nil {
						t.Fatalf("seed %d n=%d: predict: %v / %v", seed, n, err1, err2)
					}
					if math.Abs(im-rm) > tol || math.Abs(is*is-rs*rs) > tol {
						t.Fatalf("seed %d n=%d point %d: incremental posterior (%v, %v²), refit (%v, %v²)",
							seed, n, i, im, is, rm, rs)
					}
				}
				checked++
			}
			return bowl(cfg)
		}
		res, err := r.Run(eval, opts)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if checked != res.Iterations {
			t.Fatalf("seed %d: checked %d fits over %d iterations", seed, checked, res.Iterations)
		}
	}
}

// TestParallelRunIsByteIdentical runs the engine sequentially
// (Workers=1) and with a worker pool (Workers=8) and demands identical
// traces: the parallel surrogate conditioning and acquisition search
// must not leak goroutine scheduling into any decision.
func TestParallelRunIsByteIdentical(t *testing.T) {
	topo := resource.Small()
	for seed := int64(1); seed <= 3; seed++ {
		seq := traceOf(t, topo, 3, Options{Seed: seed, MaxIterations: 16, Workers: 1})
		par := traceOf(t, topo, 3, Options{Seed: seed, MaxIterations: 16, Workers: 8})
		diffTraces(t, "sequential vs parallel", seq, par)
	}
}

// predictOne is the single-point posterior: a one-row PredictBatch
// through a fresh buffer.
func predictOne(m *gp.GP, x []float64) (mean, std float64, err error) {
	var means, stds [1]float64
	err = m.PredictBatch([][]float64{x}, means[:], stds[:], new(gp.PredictBuf))
	return means[0], stds[0], err
}
