// Package optimize maximizes acquisition functions over the feasible
// partition polytope of Eq. 4–6 in the paper: for every resource r and
// job j, 1 ≤ x(j,r) ≤ Nunits(r)−Njobs+1, and Σ_j x(j,r) = Nunits(r).
//
// The paper plugs SciPy's SLSQP in as an off-the-shelf local solver for
// this constrained maximization. Here the same role is played by
// multi-start projected gradient ascent: the feasible set is, per
// resource, a box-bounded simplex, onto which exact Euclidean
// projection is cheap (a breakpoint walk on the dual shift). The
// substitution is behaviour-preserving — both are local constrained
// maximizers over the identical feasible set, restarted from multiple
// points.
//
// Objectives have one form, Problem.Objective: a scalar score that
// also writes its closed-form gradient when asked (DESIGN.md §13), so
// an ascent step costs one objective call.
//
// The multi-starts are independent, so Maximize fans them out over a
// bounded worker pool and reduces the results in start order — the
// winner is a pure function of the start list, never of goroutine
// scheduling (DESIGN.md §8).
package optimize

import (
	"math"
	"sort"
	"sync"

	"clite/internal/par"
	"clite/internal/resource"
	"clite/internal/stats"
)

// ProjectBoundedSimplex returns the Euclidean projection of v onto
// {x : lo ≤ x_i ≤ hi, Σ x_i = total}: the unique shift τ with
// Σ clamp(v_i − τ, lo, hi) = total is found exactly by walking the
// sorted breakpoints of that piecewise-linear sum. The feasible set
// must be non-empty: n·lo ≤ total ≤ n·hi.
func ProjectBoundedSimplex(v []float64, lo, hi, total float64) []float64 {
	out := append([]float64(nil), v...)
	var scratch []float64
	projectBoundedSimplexInPlace(out, lo, hi, total, &scratch)
	return out
}

// projectBoundedSimplexInPlace projects v in place. scratch is a
// reusable breakpoint buffer (grown to 2·len(v)); passing the same
// pointer across calls makes the projection allocation-free, which
// matters because the ascent loop projects every candidate step.
func projectBoundedSimplexInPlace(v []float64, lo, hi, total float64, scratch *[]float64) {
	n := len(v)
	if n == 0 {
		return
	}
	// g(τ) = Σ clamp(v_i − τ, lo, hi) is non-increasing and piecewise
	// linear with breakpoints at v_i − hi (coordinate i leaves its hi
	// cap) and v_i − lo (coordinate i hits its lo floor).
	bp := (*scratch)[:0]
	for _, x := range v {
		bp = append(bp, x-hi, x-lo)
	}
	sort.Float64s(bp)
	*scratch = bp
	g := func(tau float64) float64 {
		var s float64
		for _, x := range v {
			s += stats.Clamp(x-tau, lo, hi)
		}
		return s
	}
	tau := bp[len(bp)-1]
	if gFirst := g(bp[0]); gFirst <= total {
		// total ≥ g everywhere right of the flat n·hi ray; the first
		// breakpoint is the closest feasible shift.
		tau = bp[0]
	} else {
		gPrev := gFirst
		for k := 1; k < len(bp); k++ {
			gk := g(bp[k])
			if gk <= total {
				// τ* lies on the linear segment [bp[k−1], bp[k]].
				tau = bp[k-1]
				if gPrev > gk {
					tau += (gPrev - total) * (bp[k] - bp[k-1]) / (gPrev - gk)
				}
				break
			}
			gPrev = gk
			tau = bp[k]
		}
	}
	for i, x := range v {
		v[i] = stats.Clamp(x-tau, lo, hi)
	}
}

// Problem specifies one acquisition-maximization instance: an
// objective over the partition polytope of Topo × NJobs, plus the
// restart and worker settings of the multi-start ascent.
type Problem struct {
	Topo  resource.Topology
	NJobs int
	// Objective returns the value at the job-major continuous unit
	// vector x (resource.Config.Vector layout); Maximize maximizes it.
	// When grad is non-nil it also writes ∇Objective(x), in the same
	// layout, into grad; a nil grad asks for the value only. With
	// Workers ≠ 1 it is called concurrently and must be safe for that —
	// closures carrying mutable scratch keep it per-goroutine
	// (sync.Pool).
	Objective func(x, grad []float64) float64
	// FrozenJob, if ≥ 0, pins that job's allocation to FrozenAlloc —
	// the paper's dropout-copy dimensionality reduction (Sec. 4).
	FrozenJob   int
	FrozenAlloc resource.Allocation
	// Starts are optional warm-start vectors (e.g. the incumbent).
	Starts [][]float64
	// NumRandomStarts adds random feasible restarts (default 8).
	NumRandomStarts int
	// Iterations bounds gradient steps per start (default 60).
	Iterations int
	RNG        *stats.RNG
	// Workers bounds the concurrent multi-start ascents: 0 means
	// runtime.NumCPU(), 1 forces the sequential path. The result is
	// byte-identical for every setting — random starts are drawn from
	// the RNG before the fan-out and the best ascent is selected by
	// start order, so scheduling never leaks into the answer.
	Workers int
	// Scratch, when non-nil, provides reusable storage for the start
	// vectors and per-start results, making repeated Maximize calls
	// allocation-free at steady state. The returned vector aliases the
	// scratch and is valid until the next Maximize call using it.
	Scratch *Scratch
}

// Scratch holds Maximize's reusable state: the flat arena backing the
// start vectors, the per-start values, and the random-start draw
// buffers. One Scratch serves one caller at a time (the BO engine owns
// one per run loop).
type Scratch struct {
	startsBuf []float64
	starts    [][]float64
	vals      []float64
	randCfg   resource.Config
	cuts      []int
}

func (p *Problem) iterations() int {
	if p.Iterations > 0 {
		return p.Iterations
	}
	return 60
}

func (p *Problem) randomStarts() int {
	if p.NumRandomStarts > 0 {
		return p.NumRandomStarts
	}
	return 8
}

// ascender owns the scratch one gradient ascent needs; pooling them
// keeps the hot loop allocation-free without sharing state between
// concurrent starts.
type ascender struct {
	cand, grad []float64
	candGrad   []float64
	free       []float64
	idx        []int
	bp         []float64
}

var ascenderPool = sync.Pool{New: func() any { return new(ascender) }}

// scratchOrNew settles the scratch pointer in one declaration: the
// par workers below capture it, so it must never be reassigned after
// the pool launches.
func scratchOrNew(s *Scratch) *Scratch {
	if s == nil {
		return &Scratch{}
	}
	return s
}

// Maximize runs multi-start projected gradient ascent and returns the
// best feasible continuous vector found (job-major units).
func Maximize(p Problem) []float64 {
	s := scratchOrNew(p.Scratch)
	dim := p.NJobs * len(p.Topo)
	nStarts := len(p.Starts) + p.randomStarts()
	if cap(s.startsBuf) < nStarts*dim {
		s.startsBuf = make([]float64, nStarts*dim)
	}
	s.startsBuf = s.startsBuf[:nStarts*dim]
	if cap(s.starts) < nStarts {
		s.starts = make([][]float64, 0, nStarts)
	}
	s.starts = s.starts[:0]
	if cap(s.vals) < nStarts {
		s.vals = make([]float64, nStarts)
	}
	s.vals = s.vals[:nStarts]

	scratch := ascenderPool.Get().(*ascender)
	for i, st := range p.Starts {
		row := s.startsBuf[i*dim : (i+1)*dim : (i+1)*dim]
		copy(row, st)
		p.projectInPlace(row, scratch)
		s.starts = append(s.starts, row)
	}
	for i := len(p.Starts); i < nStarts; i++ {
		resource.RandomInto(p.Topo, p.NJobs, p.RNG, &s.randCfg, &s.cuts)
		row := s.randCfg.VectorInto(s.startsBuf[i*dim : i*dim : (i+1)*dim])
		p.projectInPlace(row, scratch)
		s.starts = append(s.starts, row)
	}
	ascenderPool.Put(scratch)

	// ascend mutates each start in place and returns it, so the starts
	// themselves hold the ascended points — only the values need slots.
	par.ForEach(p.Workers, len(s.starts), func(i int) {
		a := ascenderPool.Get().(*ascender)
		_, s.vals[i] = p.ascend(s.starts[i], a)
		ascenderPool.Put(a)
	})

	var best []float64
	bestVal := math.Inf(-1)
	for i, x := range s.starts {
		if s.vals[i] > bestVal {
			bestVal = s.vals[i]
			best = x
		}
	}
	return best
}

// ascend performs projected gradient ascent from start with a
// backtracking step size, reusing the ascender's buffers. The start
// slice is ascended in place and returned.
func (p *Problem) ascend(start []float64, a *ascender) ([]float64, float64) {
	x := start
	n := len(x)
	if cap(a.grad) < n {
		a.grad = make([]float64, n)
		a.cand = make([]float64, n)
		a.candGrad = make([]float64, n)
	}
	grad, cand, candGrad := a.grad[:n], a.cand[:n], a.candGrad[:n]
	fx := p.gradient(x, grad)
	step := 2.0 // units; the search space spans tens of units per axis
	for iter := 0; iter < p.iterations(); iter++ {
		improved := false
		for tries := 0; tries < 6; tries++ {
			for i := range x {
				cand[i] = x[i] + step*grad[i]
			}
			p.projectInPlace(cand, a)
			// Candidates are scored with their gradient: an accepted one
			// is the next step's origin, so its posterior pass is not
			// repeated.
			if fc := p.gradient(cand, candGrad); fc > fx {
				copy(x, cand)
				grad, candGrad = candGrad, grad
				fx = fc
				improved = true
				break
			}
			step /= 2
			if step < 1e-3 {
				return x, fx
			}
		}
		if !improved {
			return x, fx
		}
	}
	return x, fx
}

// gradient returns Objective at x and fills g with its gradient, one
// objective call, with frozen coordinates zeroed and the result
// normalized to unit length so the step size is in units, not
// objective scale.
func (p *Problem) gradient(x []float64, g []float64) float64 {
	fx := p.Objective(x, g)
	nres := len(p.Topo)
	norm := 0.0
	for i := range g {
		if p.FrozenJob >= 0 && i/nres == p.FrozenJob {
			g[i] = 0
			continue
		}
		norm += g[i] * g[i]
	}
	if norm = math.Sqrt(norm); norm > 1e-12 {
		for i := range g {
			g[i] /= norm
		}
	}
	return fx
}

// projectInPlace maps x onto the feasible polytope, resource by
// resource, honouring a frozen job, with all scratch taken from a.
func (p *Problem) projectInPlace(x []float64, a *ascender) {
	nres := len(p.Topo)
	for r := 0; r < nres; r++ {
		total := float64(p.Topo[r].Units)
		hi := float64(resource.MaxUnitsPerJob(p.Topo, p.NJobs, r))
		// Collect the free coordinates of this resource.
		a.free = a.free[:0]
		a.idx = a.idx[:0]
		for j := 0; j < p.NJobs; j++ {
			i := j*nres + r
			if j == p.FrozenJob {
				x[i] = float64(p.FrozenAlloc[r])
				total -= float64(p.FrozenAlloc[r])
				continue
			}
			a.free = append(a.free, x[i])
			a.idx = append(a.idx, i)
		}
		projectBoundedSimplexInPlace(a.free, 1, hi, total, &a.bp)
		for k, i := range a.idx {
			x[i] = a.free[k]
		}
	}
}
