package gp

import (
	"math"
	"math/rand"
	"testing"
)

// gradTestModel fits a GP of the family on n random points in
// [0,1]^dim with a smooth target plus noise.
func gradTestModel(t testing.TB, rng *rand.Rand, family string, n, dim int, l, noise float64) *GP {
	t.Helper()
	kernel, err := KernelByName(family, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.Float64()
		}
		y[i] = math.Sin(3*x[i][0]) + x[i][dim-1]*x[i][dim-1] + 0.1*rng.NormFloat64()
	}
	g := New(kernel, noise)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return g
}

// centralGradients is the reference estimator: ∇μ and ∇σ at x by
// central differences of step h through the value-only posterior.
func centralGradients(t testing.TB, g *GP, x []float64, h float64) (dMean, dStd []float64) {
	t.Helper()
	dim := len(x)
	dMean, dStd = make([]float64, dim), make([]float64, dim)
	var mean, std [2]float64
	var buf PredictBuf
	for d := range x {
		up := append([]float64(nil), x...)
		down := append([]float64(nil), x...)
		up[d] += h
		down[d] -= h
		if err := g.PredictBatch([][]float64{up, down}, mean[:], std[:], nil, nil, &buf); err != nil {
			t.Fatal(err)
		}
		dMean[d] = (mean[0] - mean[1]) / (2 * h)
		dStd[d] = (std[0] - std[1]) / (2 * h)
	}
	return dMean, dStd
}

// relErr is ‖a − ref‖∞ / max(‖ref‖∞, floor).
func relErr(a, ref []float64, floor float64) float64 {
	var diff, scale float64
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-ref[i]))
		scale = math.Max(scale, math.Abs(ref[i]))
	}
	return diff / math.Max(scale, floor)
}

// checkPosteriorGradient compares PredictBatch's analytic gradients at
// x against central differences and reports the worse relative error,
// or -1 when σ is too close to zero for the estimator to be trusted
// (σ = √(σ² − vᵀv) loses its digits to cancellation there). Gradients
// below 1e-3 of the values' magnitude are compared absolutely against
// that floor: a central difference cannot resolve them past the
// rounding error ε·|f|/h.
func checkPosteriorGradient(t testing.TB, g *GP, x []float64) float64 {
	t.Helper()
	dim := len(x)
	var mean, std [1]float64
	dMean, dStd := make([]float64, dim), make([]float64, dim)
	var buf PredictBuf
	if err := g.PredictBatch([][]float64{x}, mean[:], std[:], dMean, dStd, &buf); err != nil {
		t.Fatal(err)
	}
	if std[0]/g.sdY < 1e-2 {
		return -1
	}
	refMean, refStd := centralGradients(t, g, x, 1e-6)
	floor := 1e-3 * (math.Abs(mean[0]) + std[0])
	return math.Max(relErr(dMean, refMean, floor), relErr(dStd, refStd, floor))
}

// TestPosteriorGradientMatchesCentralDifference checks the closed-form
// ∇μ and ∇σ against central differences for both kernel families over
// the engine's hyperparameter grid, at random interior points.
func TestPosteriorGradientMatchesCentralDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, family := range []string{"matern52", "rbf"} {
		for _, hp := range hyperGrid {
			g := gradTestModel(t, rng, family, 30, 6, hp.LengthScale, hp.Noise)
			worst, checked := 0.0, 0
			for p := 0; p < 8; p++ {
				x := make([]float64, 6)
				for d := range x {
					x[d] = 0.05 + 0.9*rng.Float64()
				}
				if e := checkPosteriorGradient(t, g, x); e >= 0 {
					worst = math.Max(worst, e)
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%s l=%g: every point had σ≈0", family, hp.LengthScale)
			}
			if worst > 1e-5 {
				t.Errorf("%s l=%g noise=%g: worst relative gradient error %.3g", family, hp.LengthScale, hp.Noise, worst)
			}
		}
	}
}

// TestPredictBatchGradientsLeaveValuesUnchanged pins the optional
// outputs: requesting gradients must not move a mean or std by one bit,
// one output may be requested without the other, and a batch's
// gradients are the per-point ones.
func TestPredictBatchGradientsLeaveValuesUnchanged(t *testing.T) {
	model, probes := batchTestModel(t, 1)
	dim := len(probes[0])
	m := len(probes)
	refMeans, refStds := make([]float64, m), make([]float64, m)
	var buf PredictBuf
	if err := model.PredictBatch(probes, refMeans, refStds, nil, nil, &buf); err != nil {
		t.Fatal(err)
	}
	means, stds := make([]float64, m), make([]float64, m)
	dMeans, dStds := make([]float64, m*dim), make([]float64, m*dim)
	if err := model.PredictBatch(probes, means, stds, dMeans, dStds, &buf); err != nil {
		t.Fatal(err)
	}
	for j := range probes {
		if math.Float64bits(means[j]) != math.Float64bits(refMeans[j]) ||
			math.Float64bits(stds[j]) != math.Float64bits(refStds[j]) {
			t.Fatalf("point %d: values moved with gradients requested", j)
		}
	}
	onlyMean := make([]float64, m*dim)
	if err := model.PredictBatch(probes, means, stds, onlyMean, nil, &buf); err != nil {
		t.Fatal(err)
	}
	for j, x := range probes {
		var mean, std [1]float64
		dm, ds := make([]float64, dim), make([]float64, dim)
		if err := model.PredictBatch([][]float64{x}, mean[:], std[:], dm, ds, &buf); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dim; d++ {
			k := j*dim + d
			if math.Float64bits(dMeans[k]) != math.Float64bits(dm[d]) ||
				math.Float64bits(onlyMean[k]) != math.Float64bits(dm[d]) ||
				math.Float64bits(dStds[k]) != math.Float64bits(ds[d]) {
				t.Fatalf("point %d dim %d: batch gradient differs from the one-row one", j, d)
			}
		}
	}
	if err := model.PredictBatch(probes, means, stds, dMeans[:dim], nil, &buf); err == nil {
		t.Fatal("short gradient output accepted")
	}
	if err := model.PredictBatch(probes, means, stds, nil, dStds, &buf); err == nil {
		t.Fatal("dStds without dMeans accepted")
	}
}

// TestPredictBatchMeanOnly: with stds nil the posterior skips the
// substitutions σ needs, and the means and ∇μ it still returns are
// bit-equal to the full call's.
func TestPredictBatchMeanOnly(t *testing.T) {
	model, probes := batchTestModel(t, 1)
	dim := len(probes[0])
	m := len(probes)
	var buf PredictBuf
	refMeans, refStds := make([]float64, m), make([]float64, m)
	refDMeans, refDStds := make([]float64, m*dim), make([]float64, m*dim)
	if err := model.PredictBatch(probes, refMeans, refStds, refDMeans, refDStds, &buf); err != nil {
		t.Fatal(err)
	}
	means, dMeans := make([]float64, m), make([]float64, m*dim)
	if err := model.PredictBatch(probes, means, nil, dMeans, nil, &buf); err != nil {
		t.Fatal(err)
	}
	for j := range probes {
		if math.Float64bits(means[j]) != math.Float64bits(refMeans[j]) {
			t.Fatalf("point %d: mean %v, full call %v", j, means[j], refMeans[j])
		}
	}
	for k := range dMeans {
		if math.Float64bits(dMeans[k]) != math.Float64bits(refDMeans[k]) {
			t.Fatalf("gradient entry %d: %v, full call %v", k, dMeans[k], refDMeans[k])
		}
	}
	if err := model.PredictBatch(probes, means, nil, dMeans, refDStds, &buf); err == nil {
		t.Fatal("dStds without stds accepted")
	}
}

// FuzzPosteriorGradient fuzzes the closed-form posterior gradients over
// random models (both kernel families, n ≤ 40 samples, dim ≤ 25, any
// grid hyperparameters) and random interior points against central
// differences.
func FuzzPosteriorGradient(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(12), uint8(3), uint8(0))
	f.Add(int64(2), uint8(1), uint8(40), uint8(25), uint8(5))
	f.Add(int64(3), uint8(0), uint8(1), uint8(1), uint8(11))
	f.Add(int64(4), uint8(1), uint8(30), uint8(15), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, famRaw, nRaw, dimRaw, hpRaw uint8) {
		family := "matern52"
		if famRaw%2 == 1 {
			family = "rbf"
		}
		n := 1 + int(nRaw)%40
		dim := 1 + int(dimRaw)%25
		hp := hyperGrid[int(hpRaw)%len(hyperGrid)]
		rng := rand.New(rand.NewSource(seed))
		g := gradTestModel(t, rng, family, n, dim, hp.LengthScale, hp.Noise)
		x := make([]float64, dim)
		for d := range x {
			x[d] = 0.05 + 0.9*rng.Float64()
		}
		if e := checkPosteriorGradient(t, g, x); e > 1e-4 {
			t.Fatalf("%s n=%d dim=%d l=%g noise=%g: relative gradient error %.3g",
				family, n, dim, hp.LengthScale, hp.Noise, e)
		}
	})
}
