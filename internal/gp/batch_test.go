package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// batchTestModel fits a Matérn GP on a deterministic random surface
// with the given conditioning worker count.
func batchTestModel(t *testing.T, workers int) (*GP, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	const n, dim = 40, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.Float64()
		}
		y[i] = math.Sin(3*x[i][0]) + 0.5*x[i][1]*x[i][2] + 0.1*rng.NormFloat64()
	}
	model := fitPool(t, "matern52", x, y, workers)
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = make([]float64, dim)
		for d := range probes[i] {
			probes[i][d] = rng.Float64()
		}
	}
	return model, probes
}

// TestPredictBatchEquivalence pins the batched posterior to the
// per-point path at batch sizes 1, 7, 64, and the empty batch: every
// mean and std must agree with Predict within 1e-10 (they are in fact
// bit-equal — the batch restructures only the interleaving across
// points, never a point's own operation chain). Run under -race this
// also covers concurrent batch evaluation with per-goroutine buffers,
// and the model itself must come out byte-identical whether its
// hyperparameter grid was conditioned with 1 worker or 4.
func TestPredictBatchEquivalence(t *testing.T) {
	model, probes := batchTestModel(t, 1)
	model4, _ := batchTestModel(t, 4)

	for _, size := range []int{0, 1, 7, 64} {
		xs := probes[:size]
		means := make([]float64, size)
		stds := make([]float64, size)
		var buf PredictBuf
		if err := model.PredictBatch(xs, means, stds, nil, nil, &buf); err != nil {
			t.Fatalf("batch %d: %v", size, err)
		}
		for i, x := range xs {
			m, s, err := model.Predict(x)
			if err != nil {
				t.Fatalf("batch %d point %d: %v", size, i, err)
			}
			if math.Abs(means[i]-m) > 1e-10 || math.Abs(stds[i]-s) > 1e-10 {
				t.Fatalf("batch %d point %d: batch (%v, %v) vs point (%v, %v)",
					size, i, means[i], stds[i], m, s)
			}
			if math.Float64bits(means[i]) != math.Float64bits(m) ||
				math.Float64bits(stds[i]) != math.Float64bits(s) {
				t.Fatalf("batch %d point %d: batch result not bit-equal to per-point", size, i)
			}
			// The 4-worker-conditioned model must be the same model.
			m4, s4, err := model4.Predict(x)
			if err != nil {
				t.Fatalf("workers=4 model, point %d: %v", i, err)
			}
			if math.Float64bits(m4) != math.Float64bits(m) ||
				math.Float64bits(s4) != math.Float64bits(s) {
				t.Fatalf("point %d: workers=4 model diverged from workers=1", i)
			}
		}
	}

	// Concurrent batch scoring with per-goroutine buffers: the model is
	// read-only during prediction, so four goroutines hammering
	// PredictBatch must be race-free and agree with the serial answer.
	refMeans := make([]float64, len(probes))
	refStds := make([]float64, len(probes))
	var refBuf PredictBuf
	if err := model.PredictBatch(probes, refMeans, refStds, nil, nil, &refBuf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			means := make([]float64, len(probes))
			stds := make([]float64, len(probes))
			var buf PredictBuf
			if err := model.PredictBatch(probes, means, stds, nil, nil, &buf); err != nil {
				t.Error(err)
				return
			}
			for i := range means {
				if math.Float64bits(means[i]) != math.Float64bits(refMeans[i]) ||
					math.Float64bits(stds[i]) != math.Float64bits(refStds[i]) {
					t.Errorf("concurrent batch diverged at point %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPredictBatchSteadyStateAllocs verifies the batch path reuses its
// flat scratch: repeated batches through one buffer must not allocate.
func TestPredictBatchSteadyStateAllocs(t *testing.T) {
	model, probes := batchTestModel(t, 1)
	means := make([]float64, len(probes))
	stds := make([]float64, len(probes))
	var buf PredictBuf
	if err := model.PredictBatch(probes, means, stds, nil, nil, &buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := model.PredictBatch(probes, means, stds, nil, nil, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictBatch allocated %.1f times per run", allocs)
	}
}
