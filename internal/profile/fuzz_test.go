package profile

import (
	"math"
	"math/rand"
	"testing"

	"clite/internal/resource"
)

// fuzzPalette supplies workload names; the cache's key mechanics do
// not validate names, so a fixed palette keeps mixes collision-prone
// (same signature, different loads) — exactly the interesting regime
// for near-miss lookups.
var fuzzPalette = []string{"memcached", "img-dnn", "xapian", "swaptions", "streamcluster"}

// clampLoad folds an arbitrary fuzzed float into a valid LC load,
// away from 0 so quantization cannot demote the job to background.
func clampLoad(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.35
	}
	return 0.1 + math.Mod(math.Abs(x), 1.3)
}

// FuzzMixKeyRoundTrip fuzzes the canonicalization and cache contract
// the placement pipeline depends on, against the string-keyed
// reference in reference_test.go: packed keys are equal exactly when
// the reference keys are, keys are permutation-invariant and decode
// back to the reference's canonical mix, Store/Lookup round-trips,
// first write wins, and LookupNear picks the same donor as the
// reference distance rule.
func FuzzMixKeyRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(2), 0.4, 0.2, 0.9, 0.6, 0.03)
	f.Add(int64(9), uint8(3), 0.35, 0.35, 0.35, 0.35, -0.04)
	f.Add(int64(-5), uint8(0), 1.2, 0.1, 0.5, 0.8, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, count uint8, l0, l1, l2, l3, perturb float64) {
		rng := rand.New(rand.NewSource(seed))
		loads := []float64{l0, l1, l2, l3}
		n := 1 + int(count%4)
		draw := func() []Job {
			jobs := make([]Job, n)
			for i := range jobs {
				jobs[i] = Job{Workload: fuzzPalette[rng.Intn(len(fuzzPalette))], Load: clampLoad(loads[rng.Intn(len(loads))])}
			}
			return jobs
		}
		jobs := draw()

		for _, l := range loads {
			q := keyQuantum(clampLoad(l))
			if keyQuantum(float64(q)*LoadQuantum) != q {
				t.Fatalf("keyQuantum not idempotent: %v -> %v", q, keyQuantum(float64(q)*LoadQuantum))
			}
		}

		key := keyOf(jobs)
		if got, want := refKey(decode(key)), refKey(jobs); got != want {
			t.Fatalf("packed key decodes to %q, reference key is %q", got, want)
		}
		reversed := make([]Job, n)
		for i, j := range jobs {
			reversed[n-1-i] = j
		}
		if got := keyOf(reversed); got != key {
			t.Fatalf("key not permutation-invariant: %x vs %x", key, got)
		}

		delta := perturb
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			delta = 0.0
		}
		delta = math.Mod(delta, NearTolerance/2)
		perturb1 := func(jobs []Job, delta float64) []Job {
			out := make([]Job, len(jobs))
			for i, j := range jobs {
				out[i] = Job{Workload: j.Workload, Load: math.Max(0.1, j.Load+delta)}
			}
			return out
		}
		perturbed := perturb1(jobs, delta)
		other := draw()
		mixes := [][]Job{jobs, reversed, perturbed, other, perturb1(other, -delta)}
		for a := range mixes {
			for b := range mixes {
				packedEq := keyOf(mixes[a]) == keyOf(mixes[b])
				if refEq := refKey(mixes[a]) == refKey(mixes[b]); packedEq != refEq {
					t.Fatalf("packed equality %v but reference equality %v for %q vs %q",
						packedEq, refEq, refKey(mixes[a]), refKey(mixes[b]))
				}
			}
		}

		cache := NewCache(resource.Default())
		if !cache.Store(&Entry{Key: key, Feasible: true}) {
			t.Fatal("first store must succeed")
		}
		if cache.Store(&Entry{Key: keyOf(reversed), Feasible: true}) {
			t.Fatal("second store of the same mix must lose (first write wins)")
		}
		e, ok := cache.Lookup(mixOf(jobs))
		if !ok || e.Key != key {
			t.Fatalf("exact lookup of %q failed (ok=%v)", refKey(jobs), ok)
		}

		// A perturbation within NearTolerance of every stored load must
		// find a donor (the stored entry qualifies even if none else
		// does).
		if keyOf(perturbed) != key {
			canonP, canonE := refCanonical(perturbed), refCanonical(jobs)
			within := true
			for i := range canonP {
				if math.Abs(canonP[i].Load-canonE[i].Load) > NearTolerance+1e-9 {
					within = false
					break
				}
			}
			donor, found := cache.LookupNear(mixOf(perturbed), NearTolerance)
			if within && (!found || donor.Key != key) {
				t.Fatalf("in-tolerance perturbation (delta %v) found no donor (found=%v)", delta, found)
			}
		}

		// Crowd the signature with feasible and infeasible neighbours,
		// then every probe must pick the reference's donor.
		for i, m := range [][]Job{perturbed, other, perturb1(jobs, -delta), perturb1(jobs, 2*delta), perturb1(other, delta)} {
			cache.Store(&Entry{Key: keyOf(m), Feasible: i%3 != 1})
		}
		for _, probe := range append(mixes, perturb1(jobs, 3*delta), perturb1(other, -2*delta)) {
			got, gotOK := cache.LookupNear(mixOf(probe), NearTolerance)
			want, wantOK := refLookupNear(cache, probe, NearTolerance)
			if got != want || gotOK != wantOK {
				t.Fatalf("LookupNear(%q) = %v, reference picks %v", refKey(probe), got, want)
			}
			if gotOK && got.Key == keyOf(probe) {
				t.Fatal("LookupNear returned the exact key it must exclude")
			}
		}
	})
}
