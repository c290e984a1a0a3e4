package gp

import (
	"errors"
	"fmt"
	"math"

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
		g.kernel.rowInto(g.x[i:], g.x[i], row)
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
	g.kernel.rowInto(g.x, x, g.kRow)
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

// PredictBuf holds PredictBatch's scratch: m points' covariance rows
// and solve vectors packed point-major with stride n. Reusing a buffer
// across calls makes batch prediction allocation-free — the
// acquisition maximizer evaluates the posterior thousands of times per
// BO iteration. A buffer must not be shared between goroutines; give
// each worker its own (they are cheap and grow on demand).
type PredictBuf struct {
	kFlat, vFlat []float64
}

func (b *PredictBuf) growBatch(m, n int) {
	if cap(b.kFlat) < m*n {
		b.kFlat = make([]float64, m*n)
		b.vFlat = make([]float64, m*n)
	}
	b.kFlat = b.kFlat[:m*n]
	b.vFlat = b.vFlat[:m*n]
}

// PredictBatch evaluates the posterior mean and standard deviation,
// in the original (unstandardized) target units, at every xs[i],
// writing into means[i] and stds[i] (both must have len(xs)) through
// one reused buffer. It is the model's only posterior path, a single
// point being a one-row batch. The forward solve runs factor-row-major
// so each packed Cholesky row is loaded once for all m points instead
// of once per point. Per point, the operation chain (covariance order,
// dot order, substitution order) is that of a plain single-point
// posterior — only the interleaving across points changes, which FP
// arithmetic cannot observe.
func (g *GP) PredictBatch(xs [][]float64, means, stds []float64, buf *PredictBuf) error {
	if len(means) != len(xs) || len(stds) != len(xs) {
		return fmt.Errorf("gp: PredictBatch needs %d-slot outputs, got %d/%d", len(xs), len(means), len(stds))
	}
	m := len(xs)
	if m == 0 {
		return nil
	}
	if g.chol == nil {
		return ErrNoData
	}
	n := len(g.x)
	buf.growBatch(m, n)
	for j, x := range xs {
		g.kernel.rowInto(g.x, x, buf.kFlat[j*n:(j+1)*n])
	}
	// Means: each point's dot runs over its contiguous covariance row.
	for j := 0; j < m; j++ {
		means[j] = linalg.Dot(buf.kFlat[j*n:(j+1)*n], g.alpha)*g.sdY + g.meanY
	}
	// Batched forward substitution L·v_j = kStar_j: iterate factor rows
	// outermost so row i is resident while all m points consume it.
	for i := 0; i < n; i++ {
		row := g.chol.Row(i)
		d := row[i]
		for j := 0; j < m; j++ {
			v := buf.vFlat[j*n : j*n+i+1]
			sum := buf.kFlat[j*n+i]
			for k := 0; k < i; k++ {
				sum -= row[k] * v[k]
			}
			v[i] = sum / d
		}
	}
	for j := range xs {
		v := buf.vFlat[j*n : (j+1)*n]
		varStd := g.kernel.variance - linalg.Dot(v, v)
		if varStd < 0 {
			varStd = 0
		}
		stds[j] = math.Sqrt(varStd) * g.sdY
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
