package cluster

import (
	"errors"
	"fmt"
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

// asked counts the classes the last assess pass asked the profile
// cache about.
func asked(s *Scheduler) int {
	n := 0
	for _, v := range s.verdicts {
		if v.pass == s.pass && v.key != nil {
			n++
		}
	}
	return n
}

// TestAssessClassMemo runs assess over many nodes that share three
// states, so most candidates copy their class's verdict, and checks
// each pass against the per-candidate reference — kinds, entries, warm
// seeds and every counter. Between the two passes the shared cache
// learns an exact feasible entry, an infeasible one and a near donor;
// the second pass must see all three, so no verdict can outlive its
// pass.
func TestAssessClassMemo(t *testing.T) {
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

	before := s.Stats()
	checkAssess(t, s, req)
	if got := s.Stats(); got.CacheMisses-before.CacheMisses != 24 || got.CacheHits != before.CacheHits {
		t.Fatalf("first pass: stats %+v then %+v, want 24 misses", before, got)
	}
	if n := asked(s); n != 3 {
		t.Fatalf("first pass asked the cache about %d mixes, want 3", n)
	}

	shared.Store(&profile.Entry{Key: key(0, req), Feasible: true})
	shared.Store(&profile.Entry{Key: key(16, req), Feasible: false})
	shared.Store(&profile.Entry{Key: key(22, Request{Workload: "memcached", Load: 0.4}), Feasible: true,
		Seeds: []resource.Config{resource.NewConfig(topo, 3)}})
	before = s.Stats()
	checkAssess(t, s, req)
	got := s.Stats()
	if got.CacheHits-before.CacheHits != 22 || got.CacheMisses-before.CacheMisses != 2 || got.CacheNearHits-before.CacheNearHits != 2 {
		t.Fatalf("second pass: stats %+v then %+v, want 22 hits, 2 misses, 2 near hits", before, got)
	}
	if n := asked(s); n != 3 {
		t.Fatalf("second pass asked the cache about %d mixes, want 3", n)
	}
	kinds := map[candKind]int{}
	for _, c := range s.cands {
		kinds[c.kind]++
	}
	if kinds[candCached] != 16 || kinds[candSkip] != 6 || kinds[candScreen] != 2 {
		t.Fatalf("second pass kinds %v, want 16 cached, 6 skipped, 2 to screen", kinds)
	}
	mustAudit(t, s)
}

// TestAssessClassesSharingKey puts nodes in two classes with one mix
// key: memcached at 0.43 and at 0.47 round to one cache bucket but
// floor to different solo buckets, so their demands differ. Each class
// asks the cache, and the counters and verdicts still match the
// per-candidate reference, before and after the key is stored.
func TestAssessClassesSharingKey(t *testing.T) {
	s := New(Options{Nodes: 6, Seed: 9})
	for id, load := range []float64{0.43, 0.47, 0.43, 0.47} {
		s.join(s.nodes[id], s.resolve(Request{Workload: "memcached", Load: load}))
	}
	if s.nodes[0].class == s.nodes[1].class || string(s.nodes[0].mix) != string(s.nodes[1].mix) {
		t.Fatalf("nodes 0 and 1: classes %d/%d, mixes %x/%x; want two classes over one mix",
			s.nodes[0].class, s.nodes[1].class, s.nodes[0].mix, s.nodes[1].mix)
	}
	mustAudit(t, s)
	req := Request{Workload: "img-dnn", Load: 0.2}
	checkAssess(t, s, req)
	if n := asked(s); n != 3 {
		t.Fatalf("asked the cache about %d classes, want 3 (empty, 0.43, 0.47)", n)
	}
	key := string(profile.AppendInsert(nil, s.nodes[0].mix, profile.Pack(req.Workload, req.Load)))
	s.profiles.Store(&profile.Entry{Key: key, Feasible: true})
	checkAssess(t, s, req)
}

// TestClassTableProperty drives random Place/Remove/FailNode streams
// under every pre-filter × profile-cache setting and audits after every
// step: each node's class holds its recomputed state, reference counts
// equal membership, and the table never has more classes than nodes.
// A second, cheaper phase churns join/leave directly on a small table,
// so ids are freed and reused and index runs are shifted on removal
// many times over.
func TestClassTableProperty(t *testing.T) {
	menu := []Request{
		{Workload: "memcached", Load: 0.2}, {Workload: "memcached", Load: 0.43},
		{Workload: "memcached", Load: 0.47}, {Workload: "img-dnn", Load: 0.2},
		{Workload: "xapian", Load: 0.3}, {Workload: "swaptions"}, {Workload: "streamcluster"},
		{Workload: "memcached", Load: 1.4},
	}
	for _, noPre := range []bool{false, true} {
		for _, noCache := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefilter=%t/cache=%t", !noPre, !noCache), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				s := New(Options{Nodes: 6, Seed: 11, ScreenIterations: 4, ScreenWorkers: 1,
					DisablePrefilter: noPre, DisableProfileCache: noCache})
				type hosted struct {
					node int
					req  Request
				}
				var placed []hosted
				for step := 0; step < 60; step++ {
					switch x := rng.Intn(10); {
					case x < 6:
						req := menu[rng.Intn(len(menu))]
						if p, err := s.Place(req); err == nil {
							placed = append(placed, hosted{p.Node, req})
						} else if !errors.Is(err, ErrUnplaceable) {
							t.Fatalf("step %d Place(%v): %v", step, req, err)
						}
					case x < 9:
						if len(placed) == 0 {
							continue
						}
						k := rng.Intn(len(placed))
						if err := s.Remove(placed[k].node, placed[k].req); err != nil {
							t.Fatalf("step %d Remove(%+v): %v", step, placed[k], err)
						}
						placed = append(placed[:k], placed[k+1:]...)
					default:
						id := rng.Intn(6)
						out, err := s.FailNode(id)
						if err != nil {
							continue // already dead
						}
						kept := placed[:0]
						for _, h := range placed {
							if h.node != id {
								kept = append(kept, h)
							}
						}
						placed = kept
						for _, o := range out {
							if o.Err == nil {
								placed = append(placed, hosted{o.Node, o.Request})
							}
						}
					}
					if err := s.Audit(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}

				// Churn: random joins and leaves on 5 nodes of a fresh
				// scheduler, without screening.
				s = New(Options{Nodes: 5, DisablePrefilter: noPre, DisableProfileCache: noCache})
				for step := 0; step < 2000; step++ {
					n := s.nodes[rng.Intn(len(s.nodes))]
					if len(n.requests) > 0 && (len(n.requests) > 3 || rng.Intn(2) == 0) {
						s.leave(n, rng.Intn(len(n.requests)))
					} else {
						s.join(n, s.resolve(menu[rng.Intn(len(menu))]))
					}
					if err := s.Audit(); err != nil {
						t.Fatalf("churn step %d: %v", step, err)
					}
				}
			})
		}
	}
}

// TestAssessSettlesOnError checks that a pass cut short by the
// arrival's solo-lookup error still adds what it counted: the first
// node holds a solo-infeasible job, so the pre-filter turns it away
// before the second, solo-feasible node reports the error.
func TestAssessSettlesOnError(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 4})
	s.join(s.nodes[0], s.resolve(Request{Workload: "memcached", Load: 1.4}))
	s.join(s.nodes[1], s.resolve(Request{Workload: "swaptions"}))
	before := s.Stats()
	if _, err := s.Place(Request{Workload: "not-a-workload", Load: 0.2}); err == nil {
		t.Fatal("an unknown workload was assessed without error")
	}
	if got := s.Stats(); got.PrefilterRejects-before.PrefilterRejects != 1 {
		t.Fatalf("prefilter rejects %d then %d, want one more", before.PrefilterRejects, got.PrefilterRejects)
	}
}
