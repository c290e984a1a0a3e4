package gp

import (
	"math"
	"testing"

	"clite/internal/stats"
)

// randomSet draws n SPD-safe training points in [0,1]^dim: distinct
// random vectors with targets in [0,1], the regime the BO engine
// feeds the surrogate (configurations are de-duplicated before
// evaluation, so no two rows coincide).
func randomSet(rng *stats.RNG, n, dim int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = rng.Float64()
	}
	return xs, ys
}

// TestAppendMatchesFreshFit is the incremental-conditioning property
// test: growing a model one Append at a time must agree with a fresh
// Fit on the extended set to 1e-10 in posterior mean and std, across
// random SPD-safe inputs, kernels, and probe points.
func TestAppendMatchesFreshFit(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 40; trial++ {
		family := "matern52"
		if trial%2 == 1 {
			family = "rbf"
		}
		n := 2 + rng.Intn(30)
		dim := 1 + rng.Intn(12)
		noise := []float64{1e-4, 1e-3, 1e-2}[rng.Intn(3)]
		length := 0.1 + 0.5*rng.Float64()
		xs, ys := randomSet(rng, n, dim)

		kg, err := KernelByName(family, length, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		grown := New(kg, noise)
		if err := grown.Fit(xs[:1], ys[:1]); err != nil {
			t.Fatalf("trial %d: seed fit: %v", trial, err)
		}
		for i := 1; i < n; i++ {
			if err := grown.Append(xs[i], ys[i]); err != nil {
				t.Fatalf("trial %d: append %d: %v", trial, i, err)
			}
		}

		kf, _ := KernelByName(family, length, 1.0)
		fresh := New(kf, noise)
		if err := fresh.Fit(xs, ys); err != nil {
			t.Fatalf("trial %d: fresh fit: %v", trial, err)
		}

		for probe := 0; probe < 8; probe++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			gm, gs, err := grown.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			fm, fs, err := fresh.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(gm-fm) > 1e-10 || math.Abs(gs-fs) > 1e-10 {
				t.Fatalf("trial %d n=%d dim=%d: posterior diverged: grown (%.15g, %.15g) fresh (%.15g, %.15g)",
					trial, n, dim, gm, gs, fm, fs)
			}
		}
		glml, err := grown.LogMarginalLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		flml, err := fresh.LogMarginalLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(glml-flml) > 1e-8*(1+math.Abs(flml)) {
			t.Fatalf("trial %d: LML diverged: grown %v fresh %v", trial, glml, flml)
		}
	}
}

// TestAppendSurvivesDuplicatePoint appends the exact same input twice;
// the rank-1 pivot collapses and Append must fall back to a jittered
// refit instead of failing or corrupting the model.
func TestAppendSurvivesDuplicatePoint(t *testing.T) {
	rng := stats.NewRNG(7)
	xs, ys := randomSet(rng, 12, 4)
	kernel, _ := KernelByName("matern52", 0.3, 1.0)
	g := New(kernel, 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	dup := append([]float64(nil), xs[3]...)
	for k := 0; k < 3; k++ {
		if err := g.Append(dup, ys[3]+0.01*float64(k)); err != nil {
			t.Fatalf("append duplicate %d: %v", k, err)
		}
	}
	if g.N() != 15 {
		t.Fatalf("N=%d, want 15", g.N())
	}
	mean, std, err := g.Predict(dup)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || math.IsNaN(std) {
		t.Fatalf("posterior corrupted: mean=%v std=%v", mean, std)
	}
}

// TestFitMLEParallelIsByteIdentical conditions the hyperparameter pool
// with 1 and 8 workers and demands the selected model agree
// byte-for-byte (kernel, noise, and posterior at probes).
func TestFitMLEParallelIsByteIdentical(t *testing.T) {
	rng := stats.NewRNG(9)
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(25)
		dim := 2 + rng.Intn(10)
		xs, ys := randomSet(rng, n, dim)
		seq := fitPool(t, "matern52", xs, ys, 1)
		parM := fitPool(t, "matern52", xs, ys, 8)
		if seq.kernel != parM.kernel || seq.noise != parM.noise {
			t.Fatalf("selected hyperparameters diverged: %+v/%v vs %+v/%v", seq.kernel, seq.noise, parM.kernel, parM.noise)
		}
		for probe := 0; probe < 8; probe++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			sm, ss, _ := seq.Predict(x)
			pm, ps, _ := parM.Predict(x)
			if sm != pm || ss != ps {
				t.Fatalf("posterior diverged under a parallel pool: (%v,%v) vs (%v,%v)", sm, ss, pm, ps)
			}
		}
	}
}

// TestPoolMatchesFitMLE grows a pool sample by sample with Observe and
// checks Best tracks what a freshly Conditioned pool selects on every
// prefix: the same hyperparameters and the same posterior.
func TestPoolMatchesFitMLE(t *testing.T) {
	rng := stats.NewRNG(21)
	n, dim := 28, 8
	xs, ys := randomSet(rng, n, dim)
	pool, err := NewPool("matern52", 4)
	if err != nil {
		t.Fatal(err)
	}
	const seedN = 10
	if err := pool.Condition(xs[:seedN], ys[:seedN]); err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, dim)
	for i := seedN; i < n; i++ {
		if err := pool.Observe(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		inc, err := pool.Best()
		if err != nil {
			t.Fatal(err)
		}
		ref := fitPool(t, "matern52", xs[:i+1], ys[:i+1], 1)
		if inc.kernel != ref.kernel || inc.noise != ref.noise {
			t.Fatalf("n=%d: grown pool selected %+v/%v, fresh pool %+v/%v", i+1, inc.kernel, inc.noise, ref.kernel, ref.noise)
		}
		for d := range probe {
			probe[d] = rng.Float64()
		}
		im, is, _ := inc.Predict(probe)
		rm, rs, _ := ref.Predict(probe)
		if math.Abs(im-rm) > 1e-10 || math.Abs(is-rs) > 1e-10 {
			t.Fatalf("n=%d: pool posterior (%v,%v) vs refit (%v,%v)", i+1, im, is, rm, rs)
		}
	}
	if pool.N() != n {
		t.Fatalf("pool.N=%d want %d", pool.N(), n)
	}
}

// TestPredictBatchMatchesPredict checks the bulk path returns exactly
// what per-point Predict does, and rejects short output slices.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := stats.NewRNG(33)
	xs, ys := randomSet(rng, 20, 6)
	model := fitPool(t, "matern52", xs, ys, 0)
	probes := make([][]float64, 50)
	for i := range probes {
		probes[i] = make([]float64, 6)
		for d := range probes[i] {
			probes[i][d] = rng.Float64()
		}
	}
	means := make([]float64, len(probes))
	stds := make([]float64, len(probes))
	var buf PredictBuf
	if err := model.PredictBatch(probes, means, stds, &buf); err != nil {
		t.Fatal(err)
	}
	for i, x := range probes {
		m, s, err := model.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if m != means[i] || s != stds[i] {
			t.Fatalf("probe %d: batch (%v,%v) vs single (%v,%v)", i, means[i], stds[i], m, s)
		}
	}
	if err := model.PredictBatch(probes, means[:10], stds, &buf); err == nil {
		t.Fatal("short output slice should error")
	}
}

// TestFitDoesNotCopyRows pins the ownership contract: the GP must
// reference the caller's rows (no deep copy), and appending to the
// caller's outer slice must not disturb the model.
func TestFitDoesNotCopyRows(t *testing.T) {
	rng := stats.NewRNG(3)
	xs, ys := randomSet(rng, 8, 3)
	kernel, _ := KernelByName("matern52", 0.3, 1.0)
	g := New(kernel, 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if &g.x[0][0] != &xs[0][0] {
		t.Fatal("Fit deep-copied rows; the ownership contract says it must reference them")
	}
	m1, s1, _ := g.Predict(xs[2])
	// Growing the caller's outer slice must leave the model intact.
	extra := make([]float64, 3)
	_ = append(xs, extra)
	m2, s2, _ := g.Predict(xs[2])
	if m1 != m2 || s1 != s2 {
		t.Fatal("appending to the caller's slice disturbed the model")
	}
}
