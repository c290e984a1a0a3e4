package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"clite/internal/stats"
)

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
	if got := m.Row(1); got[2] != 7 {
		t.Errorf("Row(1)[2] = %v, want 7", got[2])
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

// mulVec returns A·x, the right-hand side a solve round trip inverts.
func mulVec(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := range y {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

// classic3x3 is A = [[4,12,-16],[12,37,-43],[-16,-43,98]], whose
// Cholesky factor is L = [[2,0,0],[6,1,0],[-8,5,3]].
func classic3x3() *Matrix {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	return a
}

func TestCholeskyKnown(t *testing.T) {
	c := NewChol(3)
	jitter, err := c.Factor(classic3x3(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if jitter != 0 {
		t.Errorf("unexpected jitter %v", jitter)
	}
	want := [][]float64{{2}, {6, 1}, {-8, 5, 3}}
	for i, row := range want {
		for j, w := range row {
			if math.Abs(c.At(i, j)-w) > 1e-9 {
				t.Fatalf("L(%d,%d) = %v, want %v", i, j, c.At(i, j), w)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	c := NewChol(2)
	if _, err := c.Factor(a, 1e-8); err != ErrNotPositiveDefinite {
		t.Errorf("want ErrNotPositiveDefinite for an indefinite matrix, got %v", err)
	}
	if c.N() != 0 {
		t.Errorf("a failed factorization should leave the factor empty, n=%d", c.N())
	}
}

func TestCholeskyJitterRecoversSingular(t *testing.T) {
	// Rank-1 matrix: needs jitter to factor.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 1, 1, 1})
	c := NewChol(2)
	jitter, err := c.Factor(a, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Error("expected positive jitter")
	}
	if c.At(0, 0) <= 0 || c.At(1, 1) <= 0 {
		t.Error("invalid factor")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewChol(0).Factor(NewMatrix(2, 3), 1); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestSolveRoundTrip(t *testing.T) {
	a := classic3x3()
	c := NewChol(3)
	if _, err := c.Factor(a, 1e-6); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0.5}
	got := make([]float64, 3)
	c.SolveInto(mulVec(a, want), got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("SolveInto = %v, want %v", got, want)
		}
	}
}

func TestLogDetFromCholesky(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{2, 0, 0, 8}) // det = 16
	c := NewChol(2)
	if _, err := c.Factor(a, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.LogDet(); math.Abs(got-math.Log(16)) > 1e-12 {
		t.Errorf("LogDet = %v, want log 16", got)
	}
}

// randomSPD builds A = Bᵀ·B + n·I, which is symmetric positive
// definite for any B.
func randomSPD(rng *stats.RNG, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.Normal(0, 1)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += b.At(k, i) * b.At(k, j)
			}
			if i == j {
				sum += float64(n)
			}
			a.Set(i, j, sum)
		}
	}
	return a
}

func TestCholeskySolvePropertyRandomSPD(t *testing.T) {
	rng := stats.NewRNG(99)
	f := func(seedByte uint8, sizeByte uint8) bool {
		n := 1 + int(sizeByte%12)
		local := rng.Split(int64(seedByte)*13 + int64(sizeByte))
		a := randomSPD(local, n)
		c := NewChol(n)
		if _, err := c.Factor(a, 1e-4); err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = local.Normal(0, 2)
		}
		b := mulVec(a, x)
		got := make([]float64, n)
		c.SolveInto(b, got)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		// Solving in place over b must give the bit-identical answer.
		c.SolveInto(b, b)
		for i := range b {
			if math.Float64bits(b[i]) != math.Float64bits(got[i]) {
				return false
			}
		}
		// Reconstruction: L·Lᵀ ≈ A.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var sum float64
				for k := 0; k <= min(i, j); k++ {
					sum += c.At(i, k) * c.At(j, k)
				}
				if math.Abs(sum-a.At(i, j)) > 1e-6*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTriangularSolves(t *testing.T) {
	// The packed rows of L = [[2,0,0],[6,1,0],[-8,5,3]].
	c := &Chol{n: 3, data: []float64{2, 6, 1, -8, 5, 3}}
	x := make([]float64, 3)
	c.SolveLowerInto([]float64{2, 7, 3}, x)
	// Forward substitution: x0=1, x1=7-6=1, x2=(3+8-5)/3=2.
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("SolveLowerInto = %v, want %v", x, want)
		}
	}
	// SolveUpperTInto then satisfies Lᵀ·y = b.
	b := []float64{4, 5, 6}
	y := make([]float64, 3)
	c.SolveUpperTInto(b, y)
	for i := 0; i < 3; i++ {
		var sum float64
		for k := i; k < 3; k++ {
			sum += c.At(k, i) * y[k]
		}
		if math.Abs(sum-b[i]) > 1e-9 {
			t.Fatalf("SolveUpperTInto residual at %d: %v", i, sum-b[i])
		}
	}
}
