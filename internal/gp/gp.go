package gp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"clite/internal/linalg"
	"clite/internal/stats"
)

// GP is a Gaussian-process regressor. Targets are standardized
// internally, so callers can fit raw objective scores directly.
//
// A model can be conditioned two ways: Fit replaces the training set
// wholesale (O(n³)), Append folds in one more sample via a rank-1
// Cholesky extension (O(n²)). The BO engine appends one observation
// per iteration, which is what turns the per-window surrogate update
// from the dominant cost into noise.
type GP struct {
	kernel Kernel
	noise  float64 // observation noise variance (in standardized units)

	x          [][]float64 // training rows, shared with the caller (see Fit)
	yRaw       []float64   // targets in original units
	yStd       []float64   // standardized targets
	meanY, sdY float64
	jitter     float64 // diagonal jitter applied by the last factorization

	chol  *linalg.Chol
	alpha []float64
	kRow  []float64 // scratch for Append's covariance row

	// kmat/cholBuf are the retained refit scratch: the kernel matrix
	// and factor are rebuilt in place instead of reallocated, so a
	// from-scratch refit (Fit, or Append's fallback) is allocation-free
	// at steady state. chol aliases cholBuf after a successful refit
	// and is nil after a failed one (the no-model sentinel).
	kmat    *linalg.Matrix
	cholBuf *linalg.Chol
}

// ErrNoData is returned by PredictBatch and LogMarginalLikelihood
// before any successful Fit.
var ErrNoData = errors.New("gp: model has no training data")

// New returns a GP with the kernel and observation-noise variance.
func New(kernel Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-6
	}
	return &GP{kernel: kernel, noise: noise}
}

// Kernel returns the model's covariance function.
func (g *GP) Kernel() Kernel { return g.kernel }

// Fit conditions the GP on the samples (x[i], y[i]), replacing any
// previous data.
//
// Ownership contract: the GP keeps references to the x rows instead of
// deep-copying them (the BO engine refits every observation window,
// and with the engine already holding stable normalized copies the
// per-refit O(n·d) clone was pure churn). Callers must not mutate a
// row after passing it in; the outer slice itself is copied, so
// appending to the caller's slice is fine.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("gp: bad training set: %d inputs, %d targets", len(x), len(y))
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return fmt.Errorf("gp: input %d has dimension %d, want %d", i, len(xi), dim)
		}
	}
	g.x = append(g.x[:0], x...)
	g.yRaw = append(g.yRaw[:0], y...)
	return g.refit()
}

// refit rebuilds the factorization and weights from g.x/g.yRaw into
// the retained kmat/cholBuf scratch — no per-refit matrix or factor
// allocation once the buffers have grown to the model's size.
func (g *GP) refit() error {
	g.restandardize()
	n := len(g.x)
	if g.kmat == nil {
		g.kmat = &linalg.Matrix{}
	}
	g.kmat.Resize(n, n)
	k := g.kmat
	for i := 0; i < n; i++ {
		// Row i against x[i:]; arguments are ordered (x[j], x[i]) —
		// dist squares each difference, so the symmetric value is
		// bit-equal.
		row := k.Row(i)[i:]
		g.kernel.rowInto(g.x[i:], g.x[i], row, nil)
		for j := i + 1; j < n; j++ {
			k.Set(j, i, row[j-i])
		}
		k.Set(i, i, k.At(i, i)+g.noise)
	}
	if g.cholBuf == nil {
		g.cholBuf = linalg.NewChol(n)
	}
	jitter, err := g.cholBuf.Factor(k, 1e-2)
	if err != nil {
		g.chol = nil
		return fmt.Errorf("gp: kernel matrix: %w", err)
	}
	g.chol = g.cholBuf
	g.jitter = jitter
	g.solveAlpha()
	return nil
}

// restandardize recomputes the target standardization over g.yRaw.
func (g *GP) restandardize() {
	g.meanY = stats.Mean(g.yRaw)
	g.sdY = stats.StdDev(g.yRaw)
	if g.sdY < 1e-9 {
		g.sdY = 1
	}
	g.yStd = g.yStd[:0]
	for _, y := range g.yRaw {
		g.yStd = append(g.yStd, (y-g.meanY)/g.sdY)
	}
}

// solveAlpha recomputes alpha = K⁻¹·yStd into the reused buffer.
func (g *GP) solveAlpha() {
	n := len(g.yStd)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	g.chol.SolveInto(g.yStd, g.alpha)
}

// Append conditions the model on one more sample without refitting:
// the Cholesky factor grows by a rank-1 forward substitution (O(n²))
// and the weights are re-solved against the retained factor. Target
// standardization is recomputed over the extended set, so the
// posterior is numerically the same one a fresh Fit on the extended
// data would produce (byte-identical while the factorization needs no
// new jitter; the incremental-conditioning test pins this).
//
// If the extended kernel matrix stops being positive definite under
// the stored jitter, Append transparently falls back to a full refit
// with a fresh jitter search. The same ownership contract as Fit
// applies to x.
func (g *GP) Append(x []float64, y float64) error {
	if len(g.x) > 0 && len(x) != len(g.x[0]) {
		return fmt.Errorf("gp: appended input has dimension %d, want %d", len(x), len(g.x[0]))
	}
	if g.chol == nil || g.chol.N() != len(g.x) || len(g.x) == 0 {
		// No retained factor (first sample, or a previous fit failed):
		// fall back to a full conditioning on the extended data.
		g.x = append(g.x, x)
		g.yRaw = append(g.yRaw, y)
		return g.refit()
	}
	n := len(g.x)
	if cap(g.kRow) < n {
		g.kRow = make([]float64, 0, 2*n)
	}
	g.kRow = g.kRow[:n]
	g.kernel.rowInto(g.x, x, g.kRow, nil)
	diag := g.kernel.variance + g.noise + g.jitter
	g.x = append(g.x, x)
	g.yRaw = append(g.yRaw, y)
	if err := g.chol.AppendRow(g.kRow, diag); err != nil {
		// Sample clusters collapsed the pivot — refactor with a fresh
		// jitter ladder, exactly as a from-scratch Fit would.
		return g.refit()
	}
	g.restandardize()
	g.solveAlpha()
	return nil
}

// N returns the number of conditioned samples.
func (g *GP) N() int { return len(g.x) }

// PredictBuf holds PredictBatch's per-point scratch: the covariance
// row (solved in place into v = L⁻¹k*), the kernel-gradient factors
// and one back-substitution vector, each of length n. Reusing a buffer
// across calls makes prediction allocation-free — the acquisition
// maximizer evaluates the posterior thousands of times per BO
// iteration. A buffer must not be shared between goroutines; give each
// worker its own (they are cheap and grow on demand).
type PredictBuf struct {
	k, c, w []float64
}

// PredictBatch evaluates the posterior mean and standard deviation,
// in the original (unstandardized) target units, at every xs[i],
// writing into means[i] and stds[i] (each of len(xs)) through one
// reused buffer. It is the model's only posterior path, a single
// point being a one-row batch. A nil stds skips the forward and back
// substitutions, which only σ needs; the means are the same either
// way.
//
// dMeans and dStds, when non-nil, receive the gradients ∇μ and ∇σ at
// each point, packed point-major (len(xs)·dim); nil skips that work,
// and the values are the same either way. dStds needs dMeans and stds
// as well. With k* the covariance row, L the Cholesky factor,
// α = K⁻¹y and v = L⁻¹k* from the forward solve,
// σ_std = √(σ² − vᵀv), and targets standardized by sdY:
//
//   - ∇kᵢ = c(rᵢ)·(x − xᵢ)/l², with c = −(5/3)σ²(1+√5r)e^{−√5r} for
//     Matérn-5/2 and c = −kᵢ for RBF;
//   - ∇μ = sdY·Σᵢ αᵢ∇kᵢ;
//   - ∇σ = −sdY·Σᵢ wᵢ∇kᵢ/σ_std with w = L⁻ᵀv, one back-substitution
//     (0 where σ_std = 0).
func (g *GP) PredictBatch(xs [][]float64, means, stds, dMeans, dStds []float64, buf *PredictBuf) error {
	m := len(xs)
	if len(means) != m || (stds != nil && len(stds) != m) {
		return fmt.Errorf("gp: PredictBatch needs %d-slot outputs, got %d/%d", m, len(means), len(stds))
	}
	if dStds != nil && (dMeans == nil || stds == nil) {
		return errors.New("gp: PredictBatch needs dMeans and stds alongside dStds")
	}
	if m == 0 {
		return nil
	}
	if g.chol == nil {
		return ErrNoData
	}
	n, dim := len(g.x), len(g.x[0])
	for _, d := range [2][]float64{dMeans, dStds} {
		if d != nil && len(d) != m*dim {
			return fmt.Errorf("gp: PredictBatch needs %d-slot gradients, got %d", m*dim, len(d))
		}
	}
	buf.k = slices.Grow(buf.k[:0], n)[:n]
	var c []float64
	if dMeans != nil {
		buf.c = slices.Grow(buf.c[:0], n)[:n]
		c = buf.c
	}
	scale := g.sdY / (g.kernel.lengthScale * g.kernel.lengthScale)
	for j, x := range xs {
		k := buf.k
		g.kernel.rowInto(g.x, x, k, c)
		means[j] = linalg.Dot(k, g.alpha)*g.sdY + g.meanY
		var sigma float64
		if stds != nil {
			// v = L⁻¹k* overwrites the covariance row, which the mean
			// has already consumed.
			g.chol.SolveLowerInto(k, k)
			varStd := g.kernel.variance - linalg.Dot(k, k)
			if varStd < 0 {
				varStd = 0
			}
			sigma = math.Sqrt(varStd)
			stds[j] = sigma * g.sdY
		}
		if dMeans == nil {
			continue
		}
		// ∇μ and ∇σ share the radial factors: accumulate the per-sample
		// weights aᵢ = sdY·cᵢ·αᵢ/l² and bᵢ = −sdY·cᵢ·wᵢ/(l²·σ_std)
		// against (x − xᵢ).
		dm := dMeans[j*dim : (j+1)*dim]
		clear(dm)
		var ds []float64
		if dStds != nil {
			clear(dStds[j*dim : (j+1)*dim])
			if sigma > 0 {
				ds = dStds[j*dim : (j+1)*dim]
				buf.w = slices.Grow(buf.w[:0], n)[:n]
				g.chol.SolveUpperTInto(k, buf.w)
			}
		}
		for i, xi := range g.x {
			xi = xi[:len(x)]
			a := scale * c[i] * g.alpha[i]
			if ds == nil {
				for d, xd := range x {
					dm[d] += a * (xd - xi[d])
				}
				continue
			}
			b := -scale * c[i] * buf.w[i] / sigma
			for d, xd := range x {
				diff := xd - xi[d]
				dm[d] += a * diff
				ds[d] += b * diff
			}
		}
	}
	return nil
}

// LogMarginalLikelihood returns the log evidence of the conditioned
// data under the model (standardized units), the criterion used for
// hyperparameter selection.
func (g *GP) LogMarginalLikelihood() (float64, error) {
	if g.chol == nil {
		return 0, ErrNoData
	}
	n := float64(len(g.yStd))
	return -0.5*linalg.Dot(g.yStd, g.alpha) -
		0.5*g.chol.LogDet() -
		0.5*n*math.Log(2*math.Pi), nil
}
