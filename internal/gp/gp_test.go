package gp

import (
	"math"
	"testing"
	"testing/quick"

	"clite/internal/linalg"
	"clite/internal/stats"
)

// Predict is the scalar posterior reference the batch tests compare
// PredictBatch against: the posterior mean and standard deviation at
// x, in the original target units, with its own scratch.
func (g *GP) Predict(x []float64) (mean, std float64, err error) {
	if g.chol == nil {
		return 0, 0, ErrNoData
	}
	n := len(g.x)
	kStar, v := make([]float64, n), make([]float64, n)
	g.kernel.rowInto(g.x, x, kStar, nil)
	muStd := linalg.Dot(kStar, g.alpha)
	g.chol.SolveLowerInto(kStar, v)
	varStd := g.kernel.variance - linalg.Dot(v, v)
	if varStd < 0 {
		varStd = 0
	}
	return muStd*g.sdY + g.meanY, math.Sqrt(varStd) * g.sdY, nil
}

// fitPool conditions a fresh hyperparameter pool of the family on the
// samples with the given worker count and returns its selected model:
// the from-scratch grid fit.
func fitPool(t testing.TB, family string, x [][]float64, y []float64, workers int) *GP {
	t.Helper()
	pool, err := NewPool(family, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Condition(x, y); err != nil {
		t.Fatal(err)
	}
	model, err := pool.Best()
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// matern returns a unit-variance Matérn 5/2 kernel of length scale l.
func matern(l float64) Kernel {
	k, _ := KernelByName("matern52", l, 1)
	return k
}

// eval returns k(a, b).
func eval(k Kernel, a, b []float64) float64 {
	var out [1]float64
	k.rowInto([][]float64{a}, b, out[:], nil)
	return out[0]
}

func TestKernelByName(t *testing.T) {
	m, err := KernelByName("matern52", 0.5, 1)
	if err != nil || m.family != "matern52" {
		t.Fatalf("matern52: %v %v", m, err)
	}
	r, err := KernelByName("rbf", 0.5, 1)
	if err != nil || r.family != "rbf" {
		t.Fatalf("rbf: %v %v", r, err)
	}
	d, err := KernelByName("", 0.5, 1)
	if err != nil || d.family != "matern52" {
		t.Fatal("default kernel should be matern52")
	}
	if _, err := KernelByName("linear", 0.5, 1); err == nil {
		t.Error("unknown kernel should error")
	}
}

func TestKernelProperties(t *testing.T) {
	a := []float64{0.1, 0.9}
	b := []float64{0.4, 0.2}
	for _, family := range []string{"matern52", "rbf"} {
		k, err := KernelByName(family, 0.3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := eval(k, a, a); got != 2 {
			t.Errorf("%s: k(a,a) = %v, want exactly the variance 2", family, got)
		}
		if eval(k, a, b) != eval(k, b, a) {
			t.Errorf("%s: kernel not symmetric", family)
		}
		if eval(k, a, b) >= eval(k, a, a) {
			t.Errorf("%s: distinct points should have lower covariance", family)
		}
		if eval(k, a, b) <= 0 {
			t.Errorf("%s: covariance should be positive", family)
		}
	}
}

func TestKernelDecaysWithDistanceProperty(t *testing.T) {
	k := matern(0.5)
	f := func(x1, x2 uint8) bool {
		d1 := float64(x1) / 255
		d2 := float64(x2) / 255
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		near := eval(k, []float64{0}, []float64{d1})
		far := eval(k, []float64{0}, []float64{d2})
		return far <= near+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	g := New(matern(0.3), 1e-4)
	if _, _, err := g.Predict([]float64{0}); err != ErrNoData {
		t.Errorf("expected ErrNoData, got %v", err)
	}
	var mean, std [1]float64
	if err := g.PredictBatch([][]float64{{0}}, mean[:], std[:], nil, nil, new(PredictBuf)); err != ErrNoData {
		t.Errorf("PredictBatch: expected ErrNoData, got %v", err)
	}
	if _, err := g.LogMarginalLikelihood(); err != ErrNoData {
		t.Errorf("expected ErrNoData, got %v", err)
	}
}

func TestFitValidation(t *testing.T) {
	g := New(matern(0.3), 1e-4)
	if err := g.Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := g.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged inputs should fail")
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	x := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := []float64{0, 2, 3, 2.5, 5}
	g := New(matern(0.3), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mean, std, err := g.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-y[i]) > 0.05 {
			t.Errorf("mean at train point %v = %v, want %v", x[i], mean, y[i])
		}
		if std > 0.1 {
			t.Errorf("std at train point %v = %v, want ≈0", x[i], std)
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0.4}, {0.5}, {0.6}}
	y := []float64{1, 1.2, 1.1}
	g := New(matern(0.15), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	_, stdNear, _ := g.Predict([]float64{0.5})
	_, stdFar, _ := g.Predict([]float64{0.0})
	if stdFar <= stdNear {
		t.Errorf("uncertainty should grow away from data: near %v far %v", stdNear, stdFar)
	}
}

func TestPredictRecoversSmoothFunction(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(4*x) + 0.5*x }
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 20
		xs = append(xs, []float64{x})
		ys = append(ys, f(x))
	}
	g := fitPool(t, "matern52", xs, ys, 0)
	for _, x := range []float64{0.13, 0.37, 0.61, 0.88} {
		mean, _, err := g.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-f(x)) > 0.1 {
			t.Errorf("prediction at %v = %v, want ≈%v", x, mean, f(x))
		}
	}
}

func TestFitMLEPrefersBetterLengthScale(t *testing.T) {
	// Data drawn from a fast-varying function should select a shorter
	// length scale than a constant function would need; we only check
	// that the MLE pick predicts better than the worst grid point.
	rng := stats.NewRNG(9)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(12*x))
	}
	best := fitPool(t, "matern52", xs, ys, 0)
	long := New(matern(1.0), 1e-2)
	if err := long.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	bestLML, _ := best.LogMarginalLikelihood()
	longLML, _ := long.LogMarginalLikelihood()
	if bestLML < longLML {
		t.Errorf("MLE pick (%v) should beat the long-scale model (%v)", bestLML, longLML)
	}
}

func TestFitMLEWorksWithConstantTargets(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{2, 2, 2}
	g := fitPool(t, "matern52", xs, ys, 0)
	mean, _, err := g.Predict([]float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2) > 0.2 {
		t.Errorf("constant data should predict the constant: %v", mean)
	}
}

func TestMultiDimensionalFit(t *testing.T) {
	// f(x) = −‖x − 0.5‖²: a smooth bowl in 6 dimensions (the paper's
	// smallest real spaces are 10+ dimensional).
	rng := stats.NewRNG(11)
	f := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			d := v - 0.5
			s -= d * d
		}
		return s
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		x := make([]float64, 6)
		for d := range x {
			x[d] = rng.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	g := fitPool(t, "matern52", xs, ys, 0)
	center := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	corner := []float64{0, 0, 0, 0, 0, 0}
	mc, _, _ := g.Predict(center)
	mcorner, _, _ := g.Predict(corner)
	if mc <= mcorner {
		t.Errorf("GP should rank the bowl center above a corner: %v vs %v", mc, mcorner)
	}
}

func TestNReportsSampleCount(t *testing.T) {
	g := New(matern(0.3), 1e-4)
	if g.N() != 0 {
		t.Error("fresh GP should have 0 samples")
	}
	if err := g.Fit([][]float64{{0}, {1}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Errorf("N = %d, want 2", g.N())
	}
}

func TestDuplicatePointsDoNotBreakFit(t *testing.T) {
	// Clustered/duplicate samples are routine in BO; jitter must cope.
	xs := [][]float64{{0.5}, {0.5}, {0.5}, {0.51}}
	ys := []float64{1, 1.01, 0.99, 1.02}
	g := New(matern(0.3), 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatalf("duplicate points should be survivable: %v", err)
	}
	mean, _, err := g.Predict([]float64{0.5})
	if err != nil || math.Abs(mean-1) > 0.1 {
		t.Errorf("prediction at duplicated point: %v, %v", mean, err)
	}
}
