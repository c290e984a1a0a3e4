// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. 5), one per experiment, at coarse (benchmark)
// resolution — run `go test -bench=. -benchmem` and read the reported
// time as "cost to regenerate this figure". cmd/experiments produces
// the full-resolution versions. Micro-benchmarks for the hot
// components (GP fit/predict, acquisition maximization, observation
// windows, ORACLE sweeps) sit at the bottom.
package clite_test

import (
	"testing"

	"clite"
	"clite/internal/bo"
	"clite/internal/gp"
	"clite/internal/optimize"
	"clite/internal/resource"
	"clite/internal/stats"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := clite.LookupExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(clite.ExperimentConfig{Seed: 1, Coarse: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkTable1Resources(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Testbed(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkTable3Workloads(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFig6QoSCurves(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7Colocation(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8ColocationWithBG(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9aAllocation(b *testing.B)      { benchExperiment(b, "fig9a") }
func BenchmarkFig9bConvergence(b *testing.B)     { benchExperiment(b, "fig9b") }
func BenchmarkFig10LCPerformance(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11Variability(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12BGHeatmap(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13BGPerformance(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14MultiBG(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkFig15aOverhead(b *testing.B)       { benchExperiment(b, "fig15a") }
func BenchmarkFig15bQualityTrace(b *testing.B)   { benchExperiment(b, "fig15b") }
func BenchmarkFig16DynamicLoad(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkAblationDesignChoices(b *testing.B) {
	benchExperiment(b, "ablation")
}

// BenchmarkDOEComparison regenerates the Sec. 5.2 FFD/RSM comparison.
func BenchmarkDOEComparison(b *testing.B) { benchExperiment(b, "doe") }

// BenchmarkCLITERun measures one full controller invocation on the
// quickstart mix — the end-to-end unit of Fig. 15's overhead story.
func BenchmarkCLITERun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := clite.NewMachine(int64(i))
		if _, err := m.AddLC("memcached", 0.2); err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddLC("img-dnn", 0.1); err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddBG("streamcluster"); err != nil {
			b.Fatal(err)
		}
		ctrl := clite.NewController(m, clite.Options{BO: clite.BOOptions{Seed: int64(i)}})
		if _, err := ctrl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObservationWindow measures the simulated cost of one
// observation window (the evaluation step of Algorithm 1).
func BenchmarkObservationWindow(b *testing.B) {
	m := clite.NewMachine(1)
	if _, err := m.AddLC("memcached", 0.3); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddLC("masstree", 0.2); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddBG("canneal"); err != nil {
		b.Fatal(err)
	}
	cfg := resource.EqualSplit(m.Topology(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Observe(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPFit measures one per-iteration surrogate update at the
// paper's typical sample count (~50 samples, 15 dimensions), both
// ways: "incremental" extends the retained Cholesky factor of every
// hyperparameter grid point by one row and re-selects by marginal
// likelihood (the engine's steady-state path, O(grid·n²));
// "refit" rebuilds the whole grid from scratch the way every iteration
// used to (O(grid·n³)).
func BenchmarkGPFit(b *testing.B) {
	rng := stats.NewRNG(1)
	const n, window, dim = 50, 10, 15
	xs := make([][]float64, n+window)
	ys := make([]float64, n+window)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = rng.Float64()
	}
	b.Run("incremental", func(b *testing.B) {
		pool, err := gp.NewPool("matern52", 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Condition(xs[:n], ys[:n]); err != nil {
			b.Fatal(err)
		}
		i := n
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			if i == n+window {
				// Re-seed the window so steady state stays at n≈50.
				b.StopTimer()
				if err := pool.Condition(xs[:n], ys[:n]); err != nil {
					b.Fatal(err)
				}
				i = n
				b.StartTimer()
			}
			if err := pool.Observe(xs[i], ys[i]); err != nil {
				b.Fatal(err)
			}
			i++
			if _, err := pool.Best(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refit", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			gridFit(b, xs[:n], ys[:n])
		}
	})
}

// gridFit conditions a fresh single-worker Matérn hyperparameter pool
// on the samples and returns its selected model.
func gridFit(b *testing.B, xs [][]float64, ys []float64) *gp.GP {
	pool, err := gp.NewPool("matern52", 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := pool.Condition(xs, ys); err != nil {
		b.Fatal(err)
	}
	model, err := pool.Best()
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// BenchmarkGPPredict measures one posterior evaluation, a one-row
// PredictBatch through a reused buffer: the inner-loop cost of
// acquisition maximization.
func BenchmarkGPPredict(b *testing.B) {
	rng := stats.NewRNG(2)
	const n, dim = 40, 15
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = rng.Float64()
	}
	model := gridFit(b, xs, ys)
	probe := make([]float64, dim)
	for d := range probe {
		probe[d] = rng.Float64()
	}
	probes := [][]float64{probe}
	var mean, std [1]float64
	var buf gp.PredictBuf
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.PredictBatch(probes, mean[:], std[:], nil, nil, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcquisitionMaximize measures one constrained EI
// maximization over the full partition polytope (Eq. 4–6).
func BenchmarkAcquisitionMaximize(b *testing.B) {
	topo := resource.Default()
	const nJobs = 3
	target := resource.EqualSplit(topo, nJobs).Vector()
	objective := func(x, grad []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - target[i]
			s -= d * d
			if grad != nil {
				grad[i] = -2 * d
			}
		}
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimize.Maximize(optimize.Problem{
			Topo: topo, NJobs: nJobs,
			Objective: objective,
			FrozenJob: -1,
			RNG:       stats.NewRNG(int64(i)),
		})
	}
}

// BenchmarkOracleSweep measures the offline brute-force baseline the
// paper calls infeasible online (1000s of configurations).
func BenchmarkOracleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := clite.NewMachine(1)
		if _, err := m.AddLC("memcached", 0.2); err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddLC("img-dnn", 0.1); err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddBG("streamcluster"); err != nil {
			b.Fatal(err)
		}
		p, _ := clite.PolicyByName("ORACLE", 1)
		if _, err := p.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreFunction measures the Eq. 3 evaluation itself.
func BenchmarkScoreFunction(b *testing.B) {
	m := clite.NewMachine(3)
	if _, err := m.AddLC("memcached", 0.3); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddBG("swaptions"); err != nil {
		b.Fatal(err)
	}
	obs, err := m.ObserveIdeal(resource.EqualSplit(m.Topology(), 2))
	if err != nil {
		b.Fatal(err)
	}
	jobs := m.Jobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clite.Score(jobs, obs)
	}
}

// BenchmarkBOEngineIteration isolates one engine loop turn (fit +
// acquisition + candidate selection) via a tiny cheap objective.
func BenchmarkBOEngineIteration(b *testing.B) {
	topo := resource.Small()
	eval := func(cfg resource.Config) (bo.Evaluation, error) {
		var s float64
		for _, a := range cfg.Jobs {
			s += float64(a[0])
		}
		return bo.Evaluation{Score: s / 20, JobPerf: []float64{1, 1}}, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bo.Run(topo, 2, eval, bo.Options{Seed: int64(i), MaxIterations: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkTables []clite.ExperimentTable

// Example of regenerating a figure programmatically (also keeps the
// table-rendering path exercised under -bench).
func BenchmarkTableRendering(b *testing.B) {
	exp, err := clite.LookupExperiment("table3")
	if err != nil {
		b.Fatal(err)
	}
	tables, err := exp.Run(clite.ExperimentConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			n += len(t.String())
		}
	}
	if n == 0 {
		b.Fatal("no output")
	}
	sinkTables = tables
}
