package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"clite/internal/profile"
	"clite/internal/resource"
)

// TestPlaceOrderMatchesStableSort checks the counting pass against the
// comparison sort it replaced: live nodes in id order, stably sorted by
// occupancy, over random occupancies and failures (none, some, all).
func TestPlaceOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s := New(Options{Nodes: 1 + rng.Intn(80)})
		most := rng.Intn(9)
		failRate := []float64{0, 0.2, 1}[trial%3]
		for _, n := range s.nodes {
			n.requests = make([]Request, rng.Intn(most+1))
			n.failed = rng.Float64() < failRate
		}
		var want []*node
		for _, n := range s.nodes {
			if !n.failed {
				want = append(want, n)
			}
		}
		slices.SortStableFunc(want, func(a, b *node) int { return len(a.requests) - len(b.requests) })
		// Twice: the second call reuses the buffers the first sized.
		for pass := 0; pass < 2; pass++ {
			if got := s.placeOrder(); !slices.Equal(got, want) {
				t.Fatalf("trial %d pass %d: order %v, stable sort %v", trial, pass, ids(got), ids(want))
			}
		}
	}
}

func ids(nodes []*node) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = n.id
	}
	return out
}

// TestAssessPassMemo runs assess over many nodes that share three
// mixes, so most candidates are answered from the pass memo, and
// checks each pass against the per-candidate reference — kinds,
// entries, warm seeds and every counter, the profile cache's included.
// Between the two passes the shared cache learns an exact feasible
// entry, an infeasible one and a near donor; the second pass must see
// all three, so the memo cannot outlive its pass.
func TestAssessPassMemo(t *testing.T) {
	topo := resource.Default()
	shared := profile.NewCache(topo)
	s := New(Options{Nodes: 24, Seed: 3, SharedProfiles: shared})
	host := func(id int, reqs ...Request) {
		for _, r := range reqs {
			s.join(s.nodes[id], s.resolve(r))
		}
	}
	for id := 16; id < 22; id++ {
		host(id, Request{Workload: "memcached", Load: 0.2})
	}
	host(22, Request{Workload: "img-dnn", Load: 0.2}, Request{Workload: "swaptions"})
	host(23, Request{Workload: "img-dnn", Load: 0.2}, Request{Workload: "swaptions"})
	req := Request{Workload: "memcached", Load: 0.3}
	key := func(id int, r Request) string {
		return string(profile.AppendInsert(nil, s.nodes[id].mix, profile.Pack(r.Workload, r.Load)))
	}

	before := shared.Stats()
	checkAssess(t, s, req)
	if got := shared.Stats(); got.Misses-before.Misses != 24 || got.Hits != before.Hits {
		t.Fatalf("first pass: cache stats %+v then %+v, want 24 misses", before, got)
	}
	if len(s.memo.looks) != 3 {
		t.Fatalf("first pass asked the cache about %d mixes, want 3", len(s.memo.looks))
	}

	shared.Store(&profile.Entry{Key: key(0, req), Feasible: true})
	shared.Store(&profile.Entry{Key: key(16, req), Feasible: false})
	shared.Store(&profile.Entry{Key: key(22, Request{Workload: "memcached", Load: 0.4}), Feasible: true,
		Seeds: []resource.Config{resource.NewConfig(topo, 3)}})
	before = shared.Stats()
	checkAssess(t, s, req)
	got := shared.Stats()
	if got.Hits-before.Hits != 22 || got.Misses-before.Misses != 2 || got.NearHits-before.NearHits != 2 {
		t.Fatalf("second pass: cache stats %+v then %+v, want 22 hits, 2 misses, 2 near hits", before, got)
	}
	if len(s.memo.looks) != 3 {
		t.Fatalf("second pass asked the cache about %d mixes, want 3", len(s.memo.looks))
	}
	kinds := map[candKind]int{}
	for _, c := range s.cands {
		kinds[c.kind]++
	}
	if kinds[candCached] != 16 || kinds[candSkip] != 6 || kinds[candScreen] != 2 {
		t.Fatalf("second pass kinds %v, want 16 cached, 6 skipped, 2 to screen", kinds)
	}
}
