package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestBlockedCholMatchesScalar pins the blocked factorization's
// contract at sizes straddling the dispatch threshold: bit-equal
// factors and solves against the scalar reference path.
func TestBlockedCholMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, cholBlockThreshold - 1, cholBlockThreshold,
		cholBlock*2 - 1, cholBlock * 2, cholBlock*3 + 5} {
		a := randomSPDRidge(rng, n, 0.5)
		scalar := NewChol(n)
		if !scalar.factorScalar(a, 0) {
			t.Fatalf("n=%d: scalar factorization failed", n)
		}
		blocked := NewChol(n)
		if !blocked.factorBlocked(a, 0) {
			t.Fatalf("n=%d: blocked factorization failed", n)
		}
		assertCholBitEqual(t, n, scalar, blocked)

		// The public entry must dispatch to a path that agrees too.
		viaFactor := NewChol(n)
		if _, err := viaFactor.Factor(a, 1e-2); err != nil {
			t.Fatalf("n=%d: Factor: %v", n, err)
		}
		assertCholBitEqual(t, n, scalar, viaFactor)

		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, x2 := make([]float64, n), make([]float64, n)
		scalar.SolveInto(b, x1)
		blocked.SolveInto(b, x2)
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("n=%d solve diverged at %d: scalar %v blocked %v", n, i, x1[i], x2[i])
			}
		}
	}
}

// TestBlockedCholReusesStorage verifies Factor is allocation-free at
// steady state: refactoring into the same receiver must not grow its
// backing array.
func TestBlockedCholReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := cholBlockThreshold + 3
	a := randomSPDRidge(rng, n, 0.5)
	c := NewChol(n)
	if _, err := c.Factor(a, 1e-2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.Factor(a, 1e-2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Factor allocated %.1f times per run", allocs)
	}
}

// TestBlockedCholNonSPDFallsBackToJitter exercises the failure path:
// a rank-deficient matrix must still factor once the jitter ladder
// kicks in, identically on both paths.
func TestBlockedCholNonSPDFallsBackToJitter(t *testing.T) {
	n := cholBlockThreshold + 2
	a := NewMatrix(n, n) // all-zero: not PD, factorable with jitter
	blocked := NewChol(n)
	jb, err := blocked.Factor(a, 1e-2)
	if err != nil {
		t.Fatalf("jittered factorization failed: %v", err)
	}
	scalar := NewChol(n)
	if !scalar.factorScalar(a, jb) {
		t.Fatalf("scalar factorization failed at jitter %g", jb)
	}
	assertCholBitEqual(t, n, scalar, blocked)
}

func assertCholBitEqual(t *testing.T, n int, want, got *Chol) {
	t.Helper()
	if want.N() != n || got.N() != n {
		t.Fatalf("dimension mismatch: want %d/%d, n=%d", want.N(), got.N(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("n=%d L(%d,%d): scalar %v blocked %v", n, i, j, want.At(i, j), got.At(i, j))
			}
		}
	}
}

// FuzzBlockedCholVsScalar fuzzes the blocked factorization's contract
// across sizes, conditioning, and jitter: factor and solve must agree
// bit for bit with the scalar reference path. This is the §13
// determinism argument for swapping the factorization under the BO
// engine without perturbing a single decision.
func FuzzBlockedCholVsScalar(f *testing.F) {
	f.Add(int64(1), uint8(60), 0.5)
	f.Add(int64(7), uint8(cholBlockThreshold), 1.0)
	f.Add(int64(42), uint8(100), 0.05)
	f.Add(int64(-3), uint8(31), 3.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, ridge float64) {
		n := 1 + int(nRaw)%96
		if math.IsNaN(ridge) || math.IsInf(ridge, 0) || ridge <= 0 {
			ridge = 0.5
		}
		ridge = math.Min(ridge, 10)
		rng := rand.New(rand.NewSource(seed))
		a := randomSPDRidge(rng, n, ridge)

		blocked := NewChol(n)
		jitter, err := blocked.Factor(a, 1e-2)
		if err != nil {
			t.Skip("matrix not factorable even with jitter")
		}
		scalar := NewChol(n)
		if !scalar.factorScalar(a, jitter) {
			t.Fatalf("n=%d: scalar failed at the jitter (%g) the dispatcher accepted", n, jitter)
		}
		assertCholBitEqual(t, n, scalar, blocked)
		// Below the dispatch threshold Factor takes the scalar path, so
		// force the blocked one directly — it must agree at every size.
		direct := NewChol(n)
		if !direct.factorBlocked(a, jitter) {
			t.Fatalf("n=%d: blocked failed at the jitter (%g) the dispatcher accepted", n, jitter)
		}
		assertCholBitEqual(t, n, scalar, direct)

		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, x2 := make([]float64, n), make([]float64, n)
		scalar.SolveInto(b, x1)
		blocked.SolveInto(b, x2)
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("n=%d solve diverged at %d: scalar %v blocked %v", n, i, x1[i], x2[i])
			}
		}
	})
}
