// Package bo implements CLITE's Bayesian-optimization engine
// (Algorithm 1 and the Sec. 4 design): a Gaussian-process surrogate
// over partition configurations, an Expected-Improvement acquisition
// with the ζ exploration factor, engineered bootstrap samples,
// dropout-copy dimensionality reduction, constrained acquisition
// maximization, and the EI-drop termination rule.
package bo

import (
	"fmt"

	"clite/internal/stats"
)

// Acquisition maps a posterior prediction (mean, std) and the
// incumbent best objective value to a "how promising is this point"
// score; the BO engine samples the feasible point that maximizes it.
// Partials returns the score's derivatives in the mean and the std,
// through which the engine chains the posterior's gradients
// (∇a = ∂a/∂μ·∇μ + ∂a/∂σ·∇σ) for the acquisition ascent.
type Acquisition interface {
	Value(mean, std, best float64) float64
	Partials(mean, std, best float64) (dMean, dStd float64)
	Name() string
}

// EI is Expected Improvement with the exploration factor ζ (Eq. 2 of
// the paper; low values such as 0.01 work well in practice, per
// Lizotte). It is the paper's choice: near-ideal exploration/
// exploitation balance at low evaluation cost.
type EI struct {
	Zeta float64
}

// Value implements Acquisition, computing Eq. 2:
// E(x) = (μ−x̂−ζ)·Ω(z) + σ·ω(z) with z = (μ−x̂−ζ)/σ, and 0 when σ = 0.
func (e EI) Value(mean, std, best float64) float64 {
	if std <= 0 {
		return 0
	}
	improve := mean - best - e.Zeta
	z := improve / std
	return improve*stats.NormCDF(z) + std*stats.NormPDF(z)
}

// Partials implements Acquisition: ∂E/∂μ = Ω(z) and ∂E/∂σ = ω(z).
func (e EI) Partials(mean, std, best float64) (float64, float64) {
	if std <= 0 {
		return 0, 0
	}
	z := (mean - best - e.Zeta) / std
	return stats.NormCDF(z), stats.NormPDF(z)
}

// Name implements Acquisition.
func (e EI) Name() string { return fmt.Sprintf("ei(zeta=%g)", e.Zeta) }

// PI is Probability of Improvement — the cheap acquisition the paper
// notes "often gets stuck in local optima"; kept for ablation.
type PI struct {
	Zeta float64
}

// Value implements Acquisition.
func (p PI) Value(mean, std, best float64) float64 {
	if std <= 0 {
		return 0
	}
	return stats.NormCDF((mean - best - p.Zeta) / std)
}

// Partials implements Acquisition: ∂Ω(z)/∂μ = ω(z)/σ and
// ∂Ω(z)/∂σ = −z·ω(z)/σ.
func (p PI) Partials(mean, std, best float64) (float64, float64) {
	if std <= 0 {
		return 0, 0
	}
	z := (mean - best - p.Zeta) / std
	pdf := stats.NormPDF(z)
	return pdf / std, -z * pdf / std
}

// Name implements Acquisition.
func (p PI) Name() string { return fmt.Sprintf("pi(zeta=%g)", p.Zeta) }

// UCB is the Upper Confidence Bound acquisition, expressed as expected
// improvement over the incumbent so that the engine's termination rule
// applies uniformly: value = max(0, μ + β·σ − x̂).
type UCB struct {
	Beta float64
}

// Value implements Acquisition.
func (u UCB) Value(mean, std, best float64) float64 {
	v := mean + u.Beta*std - best
	if v < 0 {
		return 0
	}
	return v
}

// Partials implements Acquisition: (1, β), or zero where the value is
// clipped.
func (u UCB) Partials(mean, std, best float64) (float64, float64) {
	if mean+u.Beta*std-best < 0 {
		return 0, 0
	}
	return 1, u.Beta
}

// Name implements Acquisition.
func (u UCB) Name() string { return fmt.Sprintf("ucb(beta=%g)", u.Beta) }
