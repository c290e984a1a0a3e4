package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot even after jitter.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Chol is a growable lower-triangular Cholesky factor in packed
// row-major storage: row i holds its i+1 entries at offset i·(i+1)/2.
// Packing is what makes the factor growable — appending a row is a
// single amortized slice append, so conditioning a GP on one more
// sample costs the O(n²) forward substitution of AppendRow instead of
// the O(n³) refactorization a full refit pays.
//
// AppendRow and the reference factorization (factorScalar) share one
// loop and operation order, so a factor grown row by row is
// byte-identical to one factored from scratch with the same jitter.
type Chol struct {
	n    int
	data []float64 // len == n·(n+1)/2
}

// NewChol returns an empty factor with capacity for an n×n matrix
// preallocated (n may be 0).
func NewChol(n int) *Chol {
	return &Chol{data: make([]float64, 0, n*(n+1)/2)}
}

// N returns the factor's current dimension.
func (c *Chol) N() int { return c.n }

// Row returns a view of packed row i (i+1 entries).
func (c *Chol) Row(i int) []float64 {
	off := i * (i + 1) / 2
	return c.data[off : off+i+1]
}

// At returns L(i, j) for j ≤ i.
func (c *Chol) At(i, j int) float64 { return c.data[i*(i+1)/2+j] }

// Reset empties the factor, keeping its storage for reuse.
func (c *Chol) Reset() {
	c.n = 0
	c.data = c.data[:0]
}

// Factor (re)factors the symmetric positive-definite matrix a into the
// receiver, reusing its storage. If the factorization stalls on a
// non-positive pivot it retries with progressively larger diagonal
// jitter (up to maxJitter), the standard way to keep GP kernel
// matrices factorizable as sample points cluster together. It returns
// the jitter applied — callers that later AppendRow must add the same
// jitter to appended diagonal entries to stay consistent; on failure
// the receiver is left empty.
func (c *Chol) Factor(a *Matrix, maxJitter float64) (float64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if c.factorInto(a, jitter) {
			return jitter, nil
		}
		//lint:allow floateq jitter is an exact sentinel: assigned only the literal 0 or discrete *100 steps, never computed
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
		if jitter > maxJitter {
			break
		}
	}
	return jitter, ErrNotPositiveDefinite
}

// cholBlockThreshold is the dimension at and above which factorInto
// switches to the blocked factorization; below it the scalar loops win
// (no prefill pass, no tile bookkeeping).
const cholBlockThreshold = 48

// cholBlock is the tile edge of the blocked factorization: 32 packed
// rows of ≤32 columns keep the active panel and one update tile within
// L1 while amortizing loop overhead.
const cholBlock = 32

// factorInto (re)factors a+jitter·I into c, reporting success. Above
// the size threshold the blocked form is used, which reorders the
// schedule across elements but keeps every element's own operation
// chain identical, so the result is bit-equal to the scalar path (see
// the FuzzBlockedCholVsScalar invariant).
func (c *Chol) factorInto(a *Matrix, jitter float64) bool {
	if a.Rows >= cholBlockThreshold {
		return c.factorBlocked(a, jitter)
	}
	return c.factorScalar(a, jitter)
}

// factorScalar is the reference row-by-row factorization (the
// AppendRow-compatible operation order); the blocked path must agree
// with it bit for bit at any size.
func (c *Chol) factorScalar(a *Matrix, jitter float64) bool {
	n := a.Rows
	c.Reset()
	for i := 0; i < n; i++ {
		for t := 0; t <= i; t++ {
			c.data = append(c.data, 0)
		}
		li := c.Row(i)
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			lj := c.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					c.Reset()
					return false
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
		c.n++
	}
	return true
}

// factorBlocked is the cache-tiled left-looking factorization. Every
// element's value is a single running accumulator that subtracts the
// k-products in strictly increasing k — first the tiled bulk update
// (k-tiles in ascending order), then the in-panel tail — which is the
// exact operation sequence the scalar loop performs per element, so
// the two paths agree byte for byte. Only the traversal across
// elements changes: the bulk update streams contiguous packed rows
// tile by tile instead of re-walking full-length prefix rows per
// element, which is what makes large factorizations cache-friendly.
func (c *Chol) factorBlocked(a *Matrix, jitter float64) bool {
	n := a.Rows
	need := n * (n + 1) / 2
	c.n = 0
	if cap(c.data) < need {
		c.data = make([]float64, need)
	} else {
		c.data = c.data[:need]
	}
	// Prefill the packed lower triangle with a (+ jitter·I): the
	// accumulators start exactly where the scalar path starts them.
	idx := 0
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c.data[idx] = a.At(i, j)
			idx++
		}
		c.data[idx] = a.At(i, i) + jitter
		idx++
	}
	for jb := 0; jb < n; jb += cholBlock {
		jend := jb + cholBlock
		if jend > n {
			jend = n
		}
		// Bulk update: fold the k < jb products into block columns
		// [jb, jend), k-tiles ascending so each accumulator sees its
		// products in increasing k.
		for kb := 0; kb < jb; kb += cholBlock {
			kend := kb + cholBlock
			if kend > jb {
				kend = jb
			}
			for i := jb; i < n; i++ {
				li := c.Row(i)
				jmax := jend
				if i+1 < jmax {
					jmax = i + 1
				}
				for j := jb; j < jmax; j++ {
					lj := c.data[j*(j+1)/2:]
					s := li[j]
					for k := kb; k < kend; k++ {
						s -= li[k] * lj[k]
					}
					li[j] = s
				}
			}
		}
		// Panel factorization: finish columns [jb, jend) with the
		// in-panel k tail and the pivot/scale steps, column by column.
		for j := jb; j < jend; j++ {
			lj := c.Row(j)
			s := lj[j]
			for k := jb; k < j; k++ {
				s -= lj[k] * lj[k]
			}
			if s <= 0 || math.IsNaN(s) {
				c.Reset()
				return false
			}
			d := math.Sqrt(s)
			lj[j] = d
			for i := j + 1; i < n; i++ {
				li := c.Row(i)
				si := li[j]
				for k := jb; k < j; k++ {
					si -= li[k] * lj[k]
				}
				li[j] = si / d
			}
		}
	}
	c.n = n
	return true
}

// AppendRow grows the factor from n to n+1: k is the new sample's
// covariance against the n existing ones and diag its self-covariance
// (noise and jitter already added by the caller). Appending the last
// row of a Cholesky factorization *is* a forward substitution, so the
// result is byte-identical to refactoring the extended matrix — when
// the trailing pivot stays positive. A non-positive pivot leaves the
// factor untouched and returns ErrNotPositiveDefinite; the caller
// falls back to a full refactorization (which may pick fresh jitter).
func (c *Chol) AppendRow(k []float64, diag float64) error {
	if len(k) != c.n {
		panic(fmt.Sprintf("linalg: AppendRow got %d covariances for dimension %d", len(k), c.n))
	}
	off := len(c.data)
	c.data = append(c.data, k...)
	c.data = append(c.data, 0)
	row := c.data[off : off+c.n+1]
	// w_j = (k_j − Σ_{t<j} L(j,t)·w_t) / L(j,j), computed in place.
	for j := 0; j < c.n; j++ {
		sum := row[j]
		lj := c.Row(j)
		for t := 0; t < j; t++ {
			sum -= lj[t] * row[t]
		}
		row[j] = sum / lj[j]
	}
	d := diag
	for t := 0; t < c.n; t++ {
		d -= row[t] * row[t]
	}
	if d <= 0 || math.IsNaN(d) {
		c.data = c.data[:off]
		return ErrNotPositiveDefinite
	}
	row[c.n] = math.Sqrt(d)
	c.n++
	return nil
}

// SolveLowerInto solves L·x = b by forward substitution into x, which
// must have length N. x may alias b (each b[i] is read before x[i] is
// written).
func (c *Chol) SolveLowerInto(b, x []float64) {
	n := c.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveLowerInto dimension mismatch %d/%d vs %d", len(b), len(x), n))
	}
	for i := 0; i < n; i++ {
		sum := b[i]
		row := c.Row(i)
		for k := 0; k < i; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum / row[i]
	}
}

// SolveUpperTInto solves Lᵀ·x = b by backward substitution into x
// (the stored factor is L; its transpose is implied). x may alias b.
func (c *Chol) SolveUpperTInto(b, x []float64) {
	n := c.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveUpperTInto dimension mismatch %d/%d vs %d", len(b), len(x), n))
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= c.At(k, i) * x[k]
		}
		x[i] = sum / c.At(i, i)
	}
}

// SolveInto solves A·x = b given this factor of A, into x. x may
// alias b; no scratch is needed because both substitutions are
// aliasing-safe.
func (c *Chol) SolveInto(b, x []float64) {
	c.SolveLowerInto(b, x)
	c.SolveUpperTInto(x, x)
}

// LogDet returns log|A| = 2·Σ log L(i,i).
func (c *Chol) LogDet() float64 {
	var sum float64
	for i := 0; i < c.n; i++ {
		sum += math.Log(c.At(i, i))
	}
	return 2 * sum
}
