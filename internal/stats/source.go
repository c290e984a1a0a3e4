// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// source is math/rand's additive lagged-Fibonacci generator (rng.go,
// algorithm by D. P. Mitchell and J. A. Reeds) with the seeding made
// lazy, so that reseeding costs O(1) instead of 1,821 Lehmer steps
// over a 607-word table. Its output is identical draw for draw to
// rand.NewSource(seed).

package stats

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	lehmerMul = 48271    // math/rand's seeding multiplier
	zeroSeed  = 89482311 // what math/rand seeds with in place of 0
)

// lehmerPow[k] is 48271^(21+k) mod (2³¹−1). math/rand seeds by
// stepping the Lehmer chain x ← 48271·x mod (2³¹−1) from x₀ = seed and
// builds table entry i from x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ; since
// xₖ = seed·48271ᵏ mod (2³¹−1), any entry can be built directly from
// the seed with three multiplications.
var lehmerPow = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = x * lehmerMul % int32max
	}
	for k := range p {
		x = x * lehmerMul % int32max
		p[k] = x
	}
	return p
}()

// source implements rand.Source64. Seed only records the normalised
// seed; a table entry is built the first time the generator reads it.
// The feed index visits every entry once in the first rngLen draws, so
// after those the table is complete and pending stays 0.
type source struct {
	tap, feed int
	seed      uint64 // normalised, in [1, 2³¹−2]
	pending   int    // entries not yet built
	built     [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

// Seed restarts the stream at seed, normalising it exactly as
// math/rand does.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.pending = rngLen
	clear(s.built[:])
}

// build makes sure table entry i exists.
func (s *source) build(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.built[w]&b != 0 {
		return
	}
	s.built[w] |= b
	s.pending--
	p := lehmerPow[3*i : 3*i+3]
	u := int64(s.seed*p[0]%int32max) << 40
	u ^= int64(s.seed*p[1]%int32max) << 20
	u ^= int64(s.seed * p[2] % int32max)
	s.vec[i] = u ^ rngCooked[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.pending > 0 {
		s.build(s.feed)
		s.build(s.tap)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
