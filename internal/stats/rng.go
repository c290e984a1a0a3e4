package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Every simulator component
// (each job's arrival process, each policy's stochastic choices) owns
// its own RNG split off a root seed, so experiments are reproducible
// and components do not perturb each other's streams when code changes.
//
// The draws are math/rand's: a rand.Rand over a copy of its
// lagged-Fibonacci source (source.go) that matches rand.NewSource
// draw for draw but seeds lazily.
type RNG struct {
	r   *rand.Rand
	src source
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Reseed restarts the stream at seed in place: the draws that follow
// equal NewRNG(seed)'s draw for draw. It costs O(1) and allocates
// nothing, so a verify window can reseed its machine per observation.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Split derives an independent child stream. The label decorrelates
// children split from the same parent at different call sites.
func (g *RNG) Split(label int64) *RNG {
	// SplitMix64-style finalizer over (next, label) gives well-spread
	// child seeds even for small labels.
	z := uint64(g.r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto is Perm writing into a reused buffer. It performs
// math/rand's exact insertion shuffle (same draw sequence, same
// permutation), so it can replace Perm in hot loops without touching
// the stream.
func (g *RNG) PermInto(n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	// math/rand's loop starts at i = 0 — the first iteration is a
	// no-op swap but consumes an Intn(1) draw, and the stream must
	// match draw for draw.
	for i := 0; i < n; i++ {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// Exponential returns a sample from an exponential distribution with
// the given mean (not rate).
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// LogNormalFactor returns a multiplicative noise factor whose log is
// N(-sigma²/2, sigma²), i.e. the factor has mean 1. The tail-latency
// simulator uses it for measurement noise that can never go negative.
func (g *RNG) LogNormalFactor(sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma - sigma*sigma/2)
}

// Poisson returns a Poisson(lambda) sample. It uses Knuth's method for
// small lambda and a normal approximation above 500, which is far more
// arrivals per observation window than the simulator ever counts per
// step.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		n := g.Normal(lambda, math.Sqrt(lambda))
		if n < 0 {
			return 0
		}
		return int(n + 0.5)
	}
	limit := math.Exp(-lambda)
	p := 1.0
	k := 0
	for p > limit {
		p *= g.r.Float64()
		k++
	}
	return k - 1
}
