// Package linalg implements the dense linear algebra the
// Gaussian-process surrogate and DOE's ridge regression need: a
// row-major matrix and one packed, growable Cholesky factor (Chol)
// with its triangular solves. It is deliberately small — the GP never
// holds more than a few hundred samples, so O(n³) kernels over
// contiguous storage are plenty.
package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Resize reshapes m to rows×cols, reusing its backing storage when
// capacity allows. The contents are unspecified afterwards; callers
// must overwrite every element. This is the allocation-free form of
// NewMatrix for code that rebuilds a matrix repeatedly (the GP refit
// path).
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	m.Rows, m.Cols = rows, cols
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}
