package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDRidge builds a random symmetric positive-definite n×n matrix
// A = BᵀB + ridge·I.
func randomSPDRidge(rng *rand.Rand, n int, ridge float64) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, sum)
		}
		a.Set(i, i, a.At(i, i)+ridge)
	}
	return a
}

// TestAppendRowMatchesRefactorization grows a factor row by row and
// checks every intermediate factor is byte-identical to factoring the
// corresponding leading principal submatrix from scratch.
func TestAppendRowMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	a := randomSPDRidge(rng, n, 1.0)
	grown := NewChol(n)
	for m := 1; m <= n; m++ {
		row := make([]float64, m-1)
		for j := 0; j < m-1; j++ {
			row[j] = a.At(m-1, j)
		}
		if err := grown.AppendRow(row, a.At(m-1, m-1)); err != nil {
			t.Fatalf("AppendRow at m=%d: %v", m, err)
		}
		sub := NewMatrix(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				sub.Set(i, j, a.At(i, j))
			}
		}
		fresh := NewChol(m)
		if _, err := fresh.Factor(sub, 0); err != nil {
			t.Fatalf("fresh factor at m=%d: %v", m, err)
		}
		for i := 0; i < m; i++ {
			for j := 0; j <= i; j++ {
				if fresh.At(i, j) != grown.At(i, j) {
					t.Fatalf("m=%d L(%d,%d): fresh %v grown %v", m, i, j, fresh.At(i, j), grown.At(i, j))
				}
			}
		}
	}
}

// TestAppendRowRejectsNonPositivePivot feeds a duplicate row (singular
// extension) and expects a clean refusal that leaves the factor usable.
func TestAppendRowRejectsNonPositivePivot(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	c := NewChol(2)
	if _, err := c.Factor(a, 0); err != nil {
		t.Fatal(err)
	}
	// New point identical to row 0 but with its self-covariance
	// understated: the Schur complement is −0.1, decisively not
	// positive (exact 0 is at the mercy of rounding).
	if err := c.AppendRow([]float64{2, 1}, 1.9); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	if c.N() != 2 {
		t.Fatalf("failed append should not grow the factor: n=%d", c.N())
	}
	// The factor must still solve correctly after the rejected append.
	x := make([]float64, 2)
	c.SolveInto([]float64{3, 3}, x)
	for i, want := range []float64{1, 1} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Fatalf("solve after rejected append: x=%v", x)
		}
	}
}

// solveLowerRowOrder is the one-row-at-a-time forward substitution
// that SolveLowerInto's paired rows must reproduce bit for bit.
func solveLowerRowOrder(c *Chol, b []float64) []float64 {
	x := make([]float64, len(b))
	for i := range b {
		sum := b[i]
		row := c.Row(i)
		for k := 0; k < i; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum / row[i]
	}
	return x
}

// TestSolveLowerMatchesRowOrder pins the paired-row forward
// substitution to the row-order reference over random SPD factors of
// odd and even size, out of place and aliased.
func TestSolveLowerMatchesRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 17, 64, 101} {
		for trial := 0; trial < 4; trial++ {
			c := NewChol(n)
			if _, err := c.Factor(randomSPDRidge(rng, n, 0.5), 1e-2); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := solveLowerRowOrder(c, b)
			got := make([]float64, n)
			c.SolveLowerInto(b, got)
			aliased := append([]float64(nil), b...)
			c.SolveLowerInto(aliased, aliased)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
					math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trial %d x[%d]: paired %v, aliased %v, row order %v",
						n, trial, i, got[i], aliased[i], want[i])
				}
			}
		}
	}
}
