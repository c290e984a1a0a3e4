package gp

import (
	"fmt"
	"math"

	"clite/internal/par"
)

// hyperGrid is the length-scale × noise grid a Pool searches. Inputs
// are normalized to [0,1] per dimension (the BO engine guarantees
// this), which is what makes a fixed grid broadly applicable and keeps
// CLITE free of per-job-mix tuning. The grid tops out at 0.6: a unit
// length scale declares the whole space "as good as sampled",
// collapsing posterior variance and killing acquisition-driven
// exploration in the early iterations.
var hyperGrid = func() []struct{ LengthScale, Noise float64 } {
	lengthScales := []float64{0.1, 0.2, 0.35, 0.6}
	noises := []float64{1e-4, 1e-3, 1e-2}
	grid := make([]struct{ LengthScale, Noise float64 }, 0, len(lengthScales)*len(noises))
	for _, l := range lengthScales {
		for _, nz := range noises {
			grid = append(grid, struct{ LengthScale, Noise float64 }{l, nz})
		}
	}
	return grid
}()

// Pool is the hyperparameter-grid fit: one GP per grid point, with
// Best selecting the highest log marginal likelihood. Condition fits
// every model from scratch (O(grid·n³)); Observe extends every
// retained factor by one row (O(grid·n²)) and leaves selection exact.
// Observe is the BO engine's steady-state surrogate path: CLITE adds
// exactly one observation per window, so refitting from scratch would
// re-derive n−1 rows of every Cholesky factor it already had.
//
// Both fan the per-model work out over a bounded worker pool; Best is
// a grid-order argmax, so results are byte-identical whatever the
// worker count.
type Pool struct {
	workers int
	models  []*GP
	lmls    []float64
	errs    []error
	n       int
}

// NewPool returns an empty pool over the hyperparameter grid for the
// kernel family. workers bounds the per-update fan-out (0 means
// NumCPU, 1 forces sequential).
func NewPool(family string, workers int) (*Pool, error) {
	p := &Pool{
		workers: workers,
		models:  make([]*GP, len(hyperGrid)),
		lmls:    make([]float64, len(hyperGrid)),
		errs:    make([]error, len(hyperGrid)),
	}
	for i, h := range hyperGrid {
		kernel, err := KernelByName(family, h.LengthScale, 1.0)
		if err != nil {
			return nil, err
		}
		p.models[i] = New(kernel, h.Noise)
	}
	return p, nil
}

// N returns the number of samples conditioned into the pool.
func (p *Pool) N() int { return p.n }

// Condition replaces every model's training set (full refits, run
// concurrently). Use it to seed a pool with the samples accumulated
// before it was created; Observe handles the per-iteration growth.
// The Fit ownership contract applies to the x rows.
func (p *Pool) Condition(x [][]float64, y []float64) error {
	par.ForEach(p.workers, len(p.models), func(i int) {
		p.update(i, func(m *GP) error { return m.Fit(x, y) })
	})
	p.n = len(x)
	return p.firstUsable()
}

// Observe folds one more sample into every model via rank-1 appends,
// run concurrently across the pool.
func (p *Pool) Observe(x []float64, y float64) error {
	par.ForEach(p.workers, len(p.models), func(i int) {
		// Append retries a full refit by itself when the model has no
		// retained factor (earlier fit failure) or the pivot collapses.
		p.update(i, func(m *GP) error { return m.Append(x, y) })
	})
	p.n++
	return p.firstUsable()
}

// update applies one conditioning step to model i and refreshes its
// cached selection criterion. Each invocation touches only slot i, so
// concurrent updates of distinct models never share state.
func (p *Pool) update(i int, step func(*GP) error) {
	if err := step(p.models[i]); err != nil {
		p.errs[i] = err
		p.lmls[i] = math.Inf(-1)
		return
	}
	lml, err := p.models[i].LogMarginalLikelihood()
	if err != nil {
		p.errs[i] = err
		p.lmls[i] = math.Inf(-1)
		return
	}
	p.errs[i] = nil
	p.lmls[i] = lml
}

// firstUsable reports an error only when no grid point is usable.
func (p *Pool) firstUsable() error {
	for _, err := range p.errs {
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("gp: no hyperparameter setting fit the data: %w", p.errs[len(p.errs)-1])
}

// Best returns the conditioned model with the highest log marginal
// likelihood, resolving ties by grid order, so a pool grown sample by
// sample selects the same model a freshly Conditioned pool over the
// full set would.
func (p *Pool) Best() (*GP, error) {
	var best *GP
	bestLML := math.Inf(-1)
	for i, m := range p.models {
		if p.errs[i] != nil || m.chol == nil {
			continue
		}
		if p.lmls[i] > bestLML {
			bestLML = p.lmls[i]
			best = m
		}
	}
	if best == nil {
		return nil, p.firstUsable()
	}
	return best, nil
}
