// Package gp implements Gaussian-process regression — the surrogate
// model of CLITE's Bayesian-optimization engine (Sec. 4). It provides
// the Matérn 5/2 covariance the paper selects ("does not require
// restrictions on strong smoothness"), a squared-exponential kernel
// for ablation, exact posterior inference via Cholesky factorization,
// and log-marginal-likelihood hyperparameter selection over a small
// grid (the paper's design principle: no per-job-mix parameter tuning).
package gp

import (
	"fmt"
	"math"
)

// Kernel is the surrogate's stationary covariance function: a family,
// one length scale shared by every input dimension (inputs are
// normalized to [0,1] per dimension, so one scale fits them all), and
// a signal variance σ². The families are
//
//   - "matern52", the Matérn kernel with ν = 5/2:
//     k(r) = σ²·(1 + √5·r + 5r²/3)·exp(−√5·r). It yields twice-
//     differentiable sample paths — smooth enough to optimize over but
//     without the RBF's unrealistic infinite smoothness, which is why
//     the paper chooses it for resource-partitioning surfaces;
//   - "rbf", the squared exponential k(r) = σ²·exp(−r²/2), an ablation
//     comparator.
//
// Build one with KernelByName.
type Kernel struct {
	family      string
	lengthScale float64
	// variance is σ² and also k(x, x) exactly: every per-dimension
	// difference is (x_i − x_i)/l = +0, so r = Sqrt(+0) = +0, both
	// families' distance terms collapse to exactly 1, and multiplying
	// σ² by 1 is exact. The GP reads it directly instead of evaluating
	// the kernel at zero distance.
	variance float64
}

// KernelByName builds a kernel of the named family ("matern52", the
// default when name is empty, or "rbf") with the given length scale
// and signal variance.
func KernelByName(name string, lengthScale, variance float64) (Kernel, error) {
	switch name {
	case "matern52", "":
		return Kernel{family: "matern52", lengthScale: lengthScale, variance: variance}, nil
	case "rbf":
		return Kernel{family: "rbf", lengthScale: lengthScale, variance: variance}, nil
	default:
		return Kernel{}, fmt.Errorf("gp: unknown kernel %q", name)
	}
}

// rowInto fills out[i] = k(xs[i], x) for every row, resolving the
// family once per call instead of once per row.
func (k Kernel) rowInto(xs [][]float64, x []float64, out []float64) {
	l, v := k.lengthScale, k.variance
	if k.family == "rbf" {
		for i, xi := range xs {
			out[i] = rbf(xi, x, l, v)
		}
		return
	}
	for i, xi := range xs {
		out[i] = matern52(xi, x, l, v)
	}
}

// dist is the Euclidean distance between a and b in units of the
// length scale l.
func dist(a, b []float64, l float64) float64 {
	var sum float64
	for i := range a {
		d := (a[i] - b[i]) / l
		sum += d * d
	}
	return math.Sqrt(sum)
}

func matern52(a, b []float64, l, variance float64) float64 {
	r := dist(a, b, l)
	s5r := math.Sqrt(5) * r
	return variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

func rbf(a, b []float64, l, variance float64) float64 {
	r := dist(a, b, l)
	return variance * math.Exp(-r*r/2)
}
