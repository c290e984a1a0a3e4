package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 2.0 / 5.0
	if got := CoefficientOfVariation(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("CoV = %v, want %v", got, want)
	}
	if got := CoefficientOfVariation([]float64{0, 0}); got != 0 {
		t.Errorf("CoV of zeros = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almostEqual(got, 4, 1e-9) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	// A zero term must not collapse the result to exactly zero.
	if got := GeoMean([]float64{0, 1, 1}); got <= 0 {
		t.Errorf("GeoMean with zero term = %v, want > 0", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if got := Min(xs); got != -2 {
		t.Errorf("Min = %v, want -2", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slices should be +/-Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {95, 4.8},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// Percentile must not mutate its input.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101) // 0..100
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileBoundedByExtremesProperty(t *testing.T) {
	f := func(raw []float64, a uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := Percentile(xs, float64(a%101))
		return p >= Min(xs)-1e-9 && p <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormPDFCDF(t *testing.T) {
	if got := NormCDF(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("NormCDF(0) = %v, want 0.5", got)
	}
	if got := NormCDF(1.6448536269514722); !almostEqual(got, 0.95, 1e-9) {
		t.Errorf("NormCDF(z95) = %v, want 0.95", got)
	}
	if got := NormPDF(0); !almostEqual(got, 0.3989422804014327, 1e-12) {
		t.Errorf("NormPDF(0) = %v", got)
	}
	// Symmetry.
	for _, z := range []float64{0.3, 1.1, 2.7} {
		if !almostEqual(NormCDF(-z), 1-NormCDF(z), 1e-12) {
			t.Errorf("CDF not symmetric at %v", z)
		}
		if !almostEqual(NormPDF(-z), NormPDF(z), 1e-15) {
			t.Errorf("PDF not symmetric at %v", z)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give identical streams")
		}
	}
	c := NewRNG(42).Split(1)
	d := NewRNG(42).Split(2)
	if c.Float64() == d.Float64() {
		t.Error("different split labels should give different streams")
	}
}

// TestReseedReplaysNewRNG pins both ways of starting a stream to
// math/rand: a fresh NewRNG, and one that has already been drawn from
// and is then reseeded, replay rand.New(rand.NewSource(seed)) draw for
// draw across every draw kind.
func TestReseedReplaysNewRNG(t *testing.T) {
	pick := NewRNG(11)
	for trial := 0; trial < 10; trial++ {
		seed := int64(pick.Intn(1 << 30))
		reseeded := NewRNG(seed + 1)
		for i := pick.Intn(2 * rngLen); i > 0; i-- {
			reseeded.Normal(0, 1)
		}
		reseeded.Reseed(seed)
		for _, g := range []*RNG{NewRNG(seed), reseeded} {
			ref := rand.New(rand.NewSource(seed))
			var buf []int
			for i := 0; i < 1000; i++ {
				var got, want float64
				switch pick.Intn(5) {
				case 0:
					got, want = g.Float64(), ref.Float64()
				case 1:
					got, want = g.Normal(1, 2), 1+2*ref.NormFloat64()
				case 2:
					got, want = g.Exponential(3), ref.ExpFloat64()*3
				case 3:
					got, want = float64(g.Intn(97)), float64(ref.Intn(97))
				default:
					n := 1 + pick.Intn(9)
					buf = g.PermInto(n, buf)
					for k, v := range ref.Perm(n) {
						if buf[k] != v {
							t.Fatalf("seed %d draw %d: PermInto %v, want math/rand's Perm element %d = %d", seed, i, buf, k, v)
						}
					}
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: %v, want math/rand's %v", seed, i, got, want)
				}
			}
		}
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(7)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exponential(2.5)
	}
	if got := sum / n; !almostEqual(got, 2.5, 0.05) {
		t.Errorf("Exponential mean = %v, want ~2.5", got)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	g := NewRNG(11)
	for _, lambda := range []float64{0.5, 4, 40, 800} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(lambda))
		}
		got := sum / n
		if math.Abs(got-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, got)
		}
	}
	if got := NewRNG(1).Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %v, want 0", got)
	}
}

func TestRNGLogNormalFactorMeanOne(t *testing.T) {
	g := NewRNG(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		f := g.LogNormalFactor(0.2)
		if f <= 0 {
			t.Fatal("noise factor must be positive")
		}
		sum += f
	}
	if got := sum / n; !almostEqual(got, 1.0, 0.01) {
		t.Errorf("LogNormalFactor mean = %v, want ~1", got)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(17)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := g.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if !almostEqual(mean, 3, 0.05) {
		t.Errorf("Normal mean = %v", mean)
	}
	if !almostEqual(variance, 4, 0.15) {
		t.Errorf("Normal variance = %v", variance)
	}
}
