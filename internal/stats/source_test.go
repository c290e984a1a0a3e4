package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matchDraws is enough draws to wrap the 607-word table three times,
// so the comparison covers entries read before they were built, right
// after, and long after the table is complete.
const matchDraws = 3*rngLen + 50

// edgeSeeds are the seeds math/rand's normalisation treats specially:
// zero and its stand-in, negatives, the modulus 2³¹−1 and its
// multiples (which normalise to 0, hence to the stand-in), and the
// int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, zeroSeed, -zeroSeed,
	int32max, -int32max, int32max - 1, int32max + 1, 2 * int32max, -2 * int32max,
	7 * int32max, 3*int32max + 1, 1 << 31, -(1 << 31), 1 << 62,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// testSeeds returns edgeSeeds plus the node seeds a cluster derives
// (Seed + i·1009, per cell Seed + c·1_000_003) and some random ones.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	for _, base := range []int64{1, 7919} {
		for c := int64(0); c < 2; c++ {
			for i := int64(0); i < 64; i += 3 {
				seeds = append(seeds, base+c*1_000_003+i*1009)
			}
		}
	}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// matchSource fails unless got yields ref's next n values, alternating
// Uint64 and Int63 so both entry points are exercised.
func matchSource(t testing.TB, what string, got *source, ref rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w uint64
		if i%2 == 0 {
			g, w = got.Uint64(), ref.Uint64()
		} else {
			g, w = uint64(got.Int63()), uint64(ref.Int63())
		}
		if g != w {
			t.Fatalf("%s: draw %d = %#x, want math/rand's %#x", what, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins the lazily seeded source to
// math/rand's rngSource draw for draw: from a fresh seed, and after a
// Reseed in the middle of a stream.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := testSeeds()
	for k, seed := range seeds {
		var s source
		s.Seed(seed)
		matchSource(t, fmt.Sprintf("seed %d", seed), &s, rand.NewSource(seed).(rand.Source64), matchDraws)

		// Reseed mid-stream, part-way into a partly built table.
		next := seeds[(k+1)%len(seeds)]
		s.Seed(next)
		matchSource(t, "partial", &s, rand.NewSource(next).(rand.Source64), k%rngLen)
		s.Seed(seed)
		matchSource(t, fmt.Sprintf("reseed %d", seed), &s, rand.NewSource(seed).(rand.Source64), matchDraws)
	}
}

// FuzzSourceMatchesMathRand compares the source with math/rand's
// across arbitrary seed pairs: n draws from the first seed, then a
// Reseed to the second and enough draws to wrap the table.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, edgeSeeds[(i+5)%len(edgeSeeds)], uint16(i*97))
	}
	f.Fuzz(func(t *testing.T, first, second int64, n uint16) {
		var s source
		s.Seed(first)
		matchSource(t, "first", &s, rand.NewSource(first).(rand.Source64), int(n)%(2*rngLen))
		s.Seed(second)
		matchSource(t, "second", &s, rand.NewSource(second).(rand.Source64), matchDraws)
	})
}

// TestReseedAllocs keeps Reseed plus a draw allocation-free.
func TestReseedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	g := NewRNG(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed += 1009
		g.Reseed(seed)
		g.Normal(0, 1)
	})
	if allocs != 0 {
		t.Errorf("Reseed+Normal allocates %v times, want 0", allocs)
	}
}

// BenchmarkReseed is the per-verify-window cost of the noise stream:
// reseed to a node's seed, then draw one normal sample.
func BenchmarkReseed(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i) * 1009)
		g.Normal(0, 1)
	}
}
