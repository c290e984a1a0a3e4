package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCholAppendVsRefit fuzzes the packed factor's central contract:
// growing a factor row by row with AppendRow is byte-identical to
// refactoring the full matrix from scratch (same arithmetic, same
// jitter), and the two factors solve identically. The BO engine's
// incremental GP conditioning rests on exactly this agreement.
func FuzzCholAppendVsRefit(f *testing.F) {
	f.Add(int64(1), uint8(8), 0.5)
	f.Add(int64(7), uint8(1), 1.0)
	f.Add(int64(42), uint8(24), 0.05)
	f.Add(int64(-3), uint8(13), 3.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, ridge float64) {
		n := 1 + int(nRaw%24)
		if math.IsNaN(ridge) || math.IsInf(ridge, 0) || ridge <= 0 {
			ridge = 0.5
		}
		ridge = math.Min(ridge, 10)
		rng := rand.New(rand.NewSource(seed))
		a := randomSPDRidge(rng, n, ridge)

		fresh := NewChol(n)
		jitter, err := fresh.Factor(a, 1e-2)
		if err != nil {
			t.Skip("matrix not factorable even with jitter")
		}
		grown := NewChol(n)
		for m := 1; m <= n; m++ {
			row := make([]float64, m-1)
			for j := 0; j < m-1; j++ {
				row[j] = a.At(m-1, j)
			}
			if err := grown.AppendRow(row, a.At(m-1, m-1)+jitter); err != nil {
				t.Fatalf("AppendRow at m=%d (jitter %g): %v", m, jitter, err)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if math.Float64bits(fresh.At(i, j)) != math.Float64bits(grown.At(i, j)) {
					t.Fatalf("n=%d L(%d,%d): refit %v grown %v", n, i, j, fresh.At(i, j), grown.At(i, j))
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, x2 := make([]float64, n), make([]float64, n)
		fresh.SolveInto(b, x1)
		grown.SolveInto(b, x2)
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("solve diverged at %d: refit %v grown %v", i, x1[i], x2[i])
			}
		}
	})
}
