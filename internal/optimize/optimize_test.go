package optimize

import (
	"math"
	"testing"
	"testing/quick"

	"clite/internal/resource"
	"clite/internal/stats"
)

func TestProjectBoundedSimplexAlreadyFeasible(t *testing.T) {
	v := []float64{2, 3, 5}
	got := ProjectBoundedSimplex(v, 1, 8, 10)
	for i := range v {
		if math.Abs(got[i]-v[i]) > 1e-6 {
			t.Errorf("feasible input should be unchanged: %v -> %v", v, got)
		}
	}
}

func TestProjectBoundedSimplexKnownCases(t *testing.T) {
	// Sum too high: uniform reduction when no bound binds.
	got := ProjectBoundedSimplex([]float64{4, 4, 4}, 1, 10, 9)
	for _, x := range got {
		if math.Abs(x-3) > 1e-6 {
			t.Errorf("uniform reduction: %v", got)
		}
	}
	// Lower bound binds.
	got = ProjectBoundedSimplex([]float64{0, 0, 9}, 1, 10, 10)
	if math.Abs(got[0]-1) > 1e-5 || math.Abs(got[1]-1) > 1e-5 || math.Abs(got[2]-8) > 1e-5 {
		t.Errorf("lower bound case: %v", got)
	}
	// Upper bound binds.
	got = ProjectBoundedSimplex([]float64{100, 1, 1}, 1, 5, 7)
	if math.Abs(got[0]-5) > 1e-5 || math.Abs(got[1]-1) > 1e-5 || math.Abs(got[2]-1) > 1e-5 {
		t.Errorf("upper bound case: %v", got)
	}
	if got := ProjectBoundedSimplex(nil, 1, 5, 0); len(got) != 0 {
		t.Error("empty input should yield empty output")
	}
}

func TestProjectBoundedSimplexProperty(t *testing.T) {
	rng := stats.NewRNG(3)
	f := func(seed int64, nByte, totByte uint8) bool {
		local := rng.Split(seed)
		n := 2 + int(nByte%6)
		lo, hi := 1.0, 12.0
		minTot, maxTot := lo*float64(n), hi*float64(n)
		total := minTot + (maxTot-minTot)*float64(totByte)/255
		v := make([]float64, n)
		for i := range v {
			v[i] = local.Normal(5, 10)
		}
		got := ProjectBoundedSimplex(v, lo, hi, total)
		var sum float64
		for _, x := range got {
			if x < lo-1e-6 || x > hi+1e-6 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-total) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProjectionIsIdempotent(t *testing.T) {
	rng := stats.NewRNG(7)
	for i := 0; i < 50; i++ {
		v := []float64{rng.Normal(0, 20), rng.Normal(0, 20), rng.Normal(0, 20), rng.Normal(0, 20)}
		p1 := ProjectBoundedSimplex(v, 1, 9, 12)
		p2 := ProjectBoundedSimplex(p1, 1, 9, 12)
		for j := range p1 {
			if math.Abs(p1[j]-p2[j]) > 1e-5 {
				t.Fatalf("projection not idempotent: %v vs %v", p1, p2)
			}
		}
	}
}

// quadraticObjective builds a concave bowl with its peak at target.
func quadraticObjective(target []float64) func(x, grad []float64) float64 {
	return func(x, grad []float64) float64 {
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
}

func TestMaximizeFindsInteriorOptimum(t *testing.T) {
	topo := resource.Small() // 3 resources × 10 units
	nJobs := 2
	// Peak at job0=(7,3,6), job1=(3,7,4) — feasible (columns sum to 10).
	target := []float64{7, 3, 6, 3, 7, 4}
	got := Maximize(Problem{
		Topo: topo, NJobs: nJobs,
		Objective: quadraticObjective(target),
		FrozenJob: -1,
		RNG:       stats.NewRNG(1),
	})
	for i := range target {
		if math.Abs(got[i]-target[i]) > 0.5 {
			t.Fatalf("Maximize = %v, want ≈%v", got, target)
		}
	}
}

func TestMaximizeRespectsConstraintsWhenPeakInfeasible(t *testing.T) {
	topo := resource.Small()
	nJobs := 2
	// Peak wants everything for job 0 — infeasible; the solution must
	// sit on the boundary (9, 1 per resource).
	target := []float64{20, 20, 20, -5, -5, -5}
	got := Maximize(Problem{
		Topo: topo, NJobs: nJobs,
		Objective: quadraticObjective(target),
		FrozenJob: -1,
		RNG:       stats.NewRNG(2),
	})
	nres := len(topo)
	for r := 0; r < nres; r++ {
		var sum float64
		for j := 0; j < nJobs; j++ {
			sum += got[j*nres+r]
		}
		if math.Abs(sum-10) > 1e-4 {
			t.Fatalf("sum constraint violated at resource %d: %v", r, got)
		}
		if got[0*nres+r] < 8.9 {
			t.Errorf("job 0 should be pushed to its cap at resource %d: %v", r, got)
		}
	}
}

func TestMaximizeHonoursFrozenJob(t *testing.T) {
	topo := resource.Small()
	nJobs := 3
	frozen := resource.Allocation{4, 4, 4}
	target := []float64{8, 8, 8, 1, 1, 1, 1, 1, 1}
	got := Maximize(Problem{
		Topo: topo, NJobs: nJobs,
		Objective:   quadraticObjective(target),
		FrozenJob:   1,
		FrozenAlloc: frozen,
		RNG:         stats.NewRNG(3),
	})
	nres := len(topo)
	for r := 0; r < nres; r++ {
		if math.Abs(got[1*nres+r]-4) > 1e-6 {
			t.Fatalf("frozen job drifted: %v", got)
		}
		var sum float64
		for j := 0; j < nJobs; j++ {
			sum += got[j*nres+r]
		}
		if math.Abs(sum-10) > 1e-4 {
			t.Fatalf("sum constraint violated with frozen job: %v", got)
		}
	}
}

func TestMaximizeUsesWarmStarts(t *testing.T) {
	topo := resource.Small()
	nJobs := 2
	// A needle objective only a warm start can find: reward within a
	// tight ball around (2,2,2)/(8,8,8).
	needle := []float64{2, 2, 2, 8, 8, 8}
	obj := func(x, grad []float64) float64 {
		var d float64
		for i := range x {
			dd := x[i] - needle[i]
			d += dd * dd
			if grad != nil {
				grad[i] = -2 * dd
			}
		}
		if d > 4 {
			clear(grad)
			return 0
		}
		return 10 - d
	}
	got := Maximize(Problem{
		Topo: topo, NJobs: nJobs,
		Objective: obj,
		FrozenJob: -1,
		Starts:    [][]float64{needle},
		RNG:       stats.NewRNG(4),
	})
	if obj(got, nil) < 9 {
		t.Errorf("warm start should land on the needle: %v (obj %v)", got, obj(got, nil))
	}
}

func TestMaximizeRoundedIsFeasible(t *testing.T) {
	topo := resource.Default()
	rng := stats.NewRNG(5)
	f := func(seed int64, jobsByte uint8) bool {
		nJobs := 2 + int(jobsByte%3)
		local := rng.Split(seed)
		peak := resource.Random(topo, nJobs, local).Vector()
		x := Maximize(Problem{
			Topo: topo, NJobs: nJobs,
			Objective:       quadraticObjective(peak),
			FrozenJob:       -1,
			NumRandomStarts: 3,
			Iterations:      25,
			RNG:             local,
		})
		return resource.RoundFeasible(topo, nJobs, x).Validate(topo) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMaximizeDeterministicGivenSeed(t *testing.T) {
	topo := resource.Small()
	target := []float64{6, 4, 5, 4, 6, 5}
	run := func() []float64 {
		return Maximize(Problem{
			Topo: topo, NJobs: 2,
			Objective: quadraticObjective(target),
			FrozenJob: -1,
			RNG:       stats.NewRNG(42),
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce the same solution")
		}
	}
}
