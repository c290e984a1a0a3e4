package optimize

import (
	"math"
	"testing"

	"clite/internal/resource"
	"clite/internal/stats"
)

func quadProblem(seed int64) Problem {
	topo := resource.Small()
	nJobs := 2
	return Problem{
		Topo: topo, NJobs: nJobs,
		Objective: PerRow(quadraticObjective(resource.EqualSplit(topo, nJobs).Vector())),
		FrozenJob: -1,
		RNG:       stats.NewRNG(seed),
		Workers:   1,
	}
}

// referenceMaximize is Maximize with a probe-at-a-time gradient: every
// point, finite-difference probes included, is scored by f the moment
// it is formed, and each coordinate's x[i]+h−2h+h restore happens
// after its probes are scored. Starts are drawn exactly as Maximize
// draws them and ascended sequentially.
func referenceMaximize(p Problem, f func([]float64) float64) []float64 {
	const h = 0.25
	nres, dim := len(p.Topo), p.NJobs*len(p.Topo)
	a := new(ascender)
	var starts [][]float64
	for _, st := range p.Starts {
		row := append([]float64(nil), st...)
		p.projectInPlace(row, a)
		starts = append(starts, row)
	}
	var cfg resource.Config
	var cuts []int
	for i := 0; i < p.randomStarts(); i++ {
		resource.RandomInto(p.Topo, p.NJobs, p.RNG, &cfg, &cuts)
		row := cfg.VectorInto(make([]float64, 0, dim))
		p.projectInPlace(row, a)
		starts = append(starts, row)
	}
	var best []float64
	bestVal := math.Inf(-1)
	for _, x := range starts {
		fx := f(x)
		grad, cand := make([]float64, dim), make([]float64, dim)
		step := 2.0
	ascent:
		for iter := 0; iter < p.iterations(); iter++ {
			norm := 0.0
			for i := range x {
				grad[i] = 0
				if p.FrozenJob >= 0 && i/nres == p.FrozenJob {
					continue
				}
				x[i] += h
				up := f(x)
				x[i] -= 2 * h
				down := f(x)
				x[i] += h
				grad[i] = (up - down) / (2 * h)
				norm += grad[i] * grad[i]
			}
			if norm = math.Sqrt(norm); norm > 1e-12 {
				for i := range grad {
					grad[i] /= norm
				}
			}
			improved := false
			for tries := 0; tries < 6; tries++ {
				for i := range x {
					cand[i] = x[i] + step*grad[i]
				}
				p.projectInPlace(cand, a)
				if fc := f(cand); fc > fx {
					copy(x, cand)
					fx = fc
					improved = true
					break
				}
				step /= 2
				if step < 1e-3 {
					break ascent
				}
			}
			if !improved {
				break
			}
		}
		if fx > bestVal {
			bestVal, best = fx, x
		}
	}
	return best
}

// TestMaximizeBatchObjectiveIdentical pins the batched-gradient ascent
// to the probe-at-a-time reference: the probe snapshots must replicate
// the sequential mutation states, restore drift included, so every
// returned vector is byte-identical. The cases cover free and frozen
// jobs on both topologies.
func TestMaximizeBatchObjectiveIdentical(t *testing.T) {
	type tc struct {
		topo   resource.Topology
		nJobs  int
		frozen int
	}
	cases := []tc{
		{resource.Small(), 2, -1},
		{resource.Default(), 3, -1},
		{resource.Default(), 4, 1},
	}
	for _, c := range cases {
		surface := quadraticObjective(resource.EqualSplit(c.topo, c.nJobs).Vector())
		for seed := int64(1); seed <= 5; seed++ {
			problem := func() Problem {
				p := Problem{
					Topo: c.topo, NJobs: c.nJobs,
					Objective: PerRow(surface),
					FrozenJob: c.frozen,
					RNG:       stats.NewRNG(seed),
					Workers:   1,
				}
				if c.frozen >= 0 {
					p.FrozenAlloc = resource.EqualSplit(c.topo, c.nJobs).Jobs[c.frozen]
				}
				return p
			}
			ref := referenceMaximize(problem(), surface)
			got := Maximize(problem())
			if len(got) != len(ref) {
				t.Fatalf("%d jobs seed %d: length %d vs %d", c.nJobs, seed, len(got), len(ref))
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%d jobs seed %d coord %d: batched %v vs reference %v", c.nJobs, seed, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestMaximizeScratchIdenticalAndReused pins the scratch-arena path to
// the allocating one and verifies the arena actually gets reused.
func TestMaximizeScratchIdenticalAndReused(t *testing.T) {
	var scratch Scratch
	for seed := int64(1); seed <= 5; seed++ {
		ref := Maximize(quadProblem(seed))
		p := quadProblem(seed)
		p.Scratch = &scratch
		got := Maximize(p)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("seed %d coord %d: scratch %v vs fresh %v", seed, i, got[i], ref[i])
			}
		}
	}
	// Steady state: repeated maximizations through one scratch must not
	// allocate (the RNG is recreated outside the measured closure).
	// sync.Pool sheds items under the race detector, so the count is
	// only meaningful in a normal build.
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool shedding)")
	}
	probs := make([]Problem, 4)
	for i := range probs {
		probs[i] = quadProblem(int64(i + 10))
		probs[i].Scratch = &scratch
	}
	Maximize(probs[0])
	allocs := testing.AllocsPerRun(5, func() {
		for i := range probs {
			probs[i].RNG = stats.NewRNG(int64(i + 10)) //lint:allow detrand fixed seeds; reset per run so each measured pass draws the same stream
			Maximize(probs[i])
		}
	})
	// Per call the fixed costs are the RNG and the fan-out closure
	// capture (~5 allocs); the per-start and per-probe storage — the
	// part that used to scale with the search — must all be
	// arena-backed. 4 calls ⇒ ~20; anything near the old ~60/call
	// means the arena regressed.
	if allocs > 24 {
		t.Fatalf("steady-state Maximize allocated %.1f times per run (want ≤ 24 fixed costs)", allocs)
	}
}
