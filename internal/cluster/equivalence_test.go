package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/workload"
)

// This file keeps the string-keyed, per-candidate assessment the typed
// one replaced, as the equivalence reference: every candidate's mix is
// rebuilt from the node's requests, pre-filtered by walking the jobs'
// solo profiles, keyed by formatting its quantized loads, and matched
// against a string index of the cache.

type refJob struct {
	workload string
	load     float64
}

// refMix is the candidate mix: the node's requests plus the arrival.
func refMix(n *node, req Request) []refJob {
	jobs := make([]refJob, 0, len(n.requests)+1)
	for _, r := range n.requests {
		jobs = append(jobs, refJob{r.Workload, r.Load})
	}
	return append(jobs, refJob{req.Workload, req.Load})
}

func refCanonical(jobs []refJob) []refJob {
	out := make([]refJob, len(jobs))
	for i, j := range jobs {
		out[i] = refJob{j.workload, math.Round(j.load/profile.LoadQuantum) * profile.LoadQuantum}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].workload != out[b].workload {
			return out[a].workload < out[b].workload
		}
		return out[a].load < out[b].load
	})
	return out
}

// refKey renders "img-dnn@0.20|memcached@0.40|swaptions".
func refKey(jobs []refJob) string {
	var b strings.Builder
	for i, j := range refCanonical(jobs) {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(j.workload)
		if j.load > 0 {
			fmt.Fprintf(&b, "@%.2f", j.load)
		}
	}
	return b.String()
}

func refSignature(jobs []refJob) string {
	var names []string
	for _, j := range refCanonical(jobs) {
		names = append(names, j.workload)
	}
	return strings.Join(names, "|")
}

// refAdmissible sums the jobs' solo minima in request order, stopping
// at the first solo-infeasible job or lookup error.
func refAdmissible(c *profile.Cache, topo resource.Topology, jobs []refJob) (bool, error) {
	need := make([]int, len(topo))
	for _, j := range jobs {
		s, err := c.Solo(j.workload, j.load)
		if err != nil {
			return false, err
		}
		if !s.Feasible {
			return false, nil
		}
		for r := range need {
			need[r] += s.MinUnits[r]
		}
	}
	for r, spec := range topo {
		if need[r] > spec.Units {
			return false, nil
		}
	}
	return true, nil
}

// refEntry is a cache entry under its reference key.
type refEntry struct {
	e    *profile.Entry
	jobs []refJob // canonical
	key  string
}

// refIndex decodes the cache journal into reference keys, in Store
// order. Only registered workloads ever screen successfully, so every
// stored ID decodes through the registry.
func refIndex(t *testing.T, c *profile.Cache) []refEntry {
	names := map[profile.ID]string{}
	for _, p := range workload.All() {
		names[profile.Pack(p.Name, 0).Workload()] = p.Name
	}
	entries, _ := c.EntriesSince(0)
	out := make([]refEntry, len(entries))
	for i, e := range entries {
		m := profile.Mix(e.Key)
		jobs := make([]refJob, m.Len())
		for k := range jobs {
			name, ok := names[m.At(k).Workload()]
			if !ok {
				t.Fatalf("stored entry names an unregistered workload: %x", e.Key)
			}
			jobs[k] = refJob{name, float64(m.At(k).Quantum()) * profile.LoadQuantum}
		}
		out[i] = refEntry{e: e, jobs: refCanonical(jobs), key: refKey(jobs)}
	}
	return out
}

func refLookupNear(index []refEntry, jobs []refJob, tol float64) *profile.Entry {
	canon := refCanonical(jobs)
	key, sig := refKey(jobs), refSignature(jobs)
	var best *profile.Entry
	bestDist := math.Inf(1)
	for _, r := range index {
		if refSignature(r.jobs) != sig || r.key == key || !r.e.Feasible {
			continue
		}
		total, ok := 0.0, true
		for i := range canon {
			d := math.Abs(r.jobs[i].load - canon[i].load)
			if d > tol+1e-9 {
				ok = false
				break
			}
			total += d
		}
		if ok && total < bestDist-1e-12 {
			best, bestDist = r.e, total
		}
	}
	return best
}

// refOutcome is one candidate's reference classification.
type refOutcome struct {
	kind  candKind
	entry *profile.Entry
	seeds []resource.Config
}

// assessCounts are the counters of the scheduler's registry ledger
// that one assessment pass moves.
type assessCounts struct {
	prefilterRejects, hits, misses, nearHits int64
}

func (s *Scheduler) assessCounts() assessCounts {
	return assessCounts{
		prefilterRejects: s.stats.prefilterRejects.Value(),
		hits:             s.stats.cacheHits.Value(),
		misses:           s.stats.cacheMisses.Value(),
		nearHits:         s.stats.cacheNearHits.Value(),
	}
}

func (a assessCounts) sub(b assessCounts) assessCounts {
	return assessCounts{
		a.prefilterRejects - b.prefilterRejects, a.hits - b.hits, a.misses - b.misses, a.nearHits - b.nearHits,
	}
}

// refAssess classifies every candidate the string-keyed way and
// returns the counter movement that classification implies.
func refAssess(t *testing.T, s *Scheduler, nodes []*node, req Request) ([]refOutcome, assessCounts, error) {
	index := refIndex(t, s.profiles)
	byKey := map[string]*profile.Entry{}
	for _, r := range index {
		byKey[r.key] = r.e
	}
	var out []refOutcome
	var d assessCounts
	for _, n := range nodes {
		jobs := refMix(n, req)
		if !s.opts.DisablePrefilter {
			ok, err := refAdmissible(s.profiles, s.topo, jobs)
			if err != nil {
				return nil, d, err
			}
			if !ok {
				out = append(out, refOutcome{kind: candSkip})
				d.prefilterRejects++
				continue
			}
		}
		if s.opts.DisableProfileCache {
			out = append(out, refOutcome{kind: candScreen})
			continue
		}
		if e, ok := byKey[refKey(jobs)]; ok {
			d.hits++
			if e.Feasible {
				out = append(out, refOutcome{kind: candCached, entry: e})
			} else {
				out = append(out, refOutcome{kind: candSkip})
			}
			continue
		}
		d.misses++
		o := refOutcome{kind: candScreen}
		if donor := refLookupNear(index, jobs, profile.NearTolerance); donor != nil {
			if seeds := donor.SeedsFor(len(jobs)); len(seeds) > 0 {
				o.seeds = seeds
				d.nearHits++
			}
		}
		out = append(out, o)
	}
	return out, d, nil
}

// checkAssess runs the typed assessment of req against the reference
// on the scheduler's current state, in Place's node order.
func checkAssess(t *testing.T, s *Scheduler, req Request) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	order := s.placeOrder()
	want, wantDelta, wantErr := refAssess(t, s, order, req)
	before := s.assessCounts()
	got, gotErr := s.assess(order, s.resolve(req))
	if delta := s.assessCounts().sub(before); wantErr == nil && delta != wantDelta {
		t.Fatalf("assess(%v): counter deltas %+v, reference %+v", req, delta, wantDelta)
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("assess(%v): error %v, reference %v", req, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("assess(%v): %d candidates, reference %d", req, len(got), len(want))
	}
	for i, w := range want {
		c := got[i]
		if c.kind != w.kind || c.entry != w.entry || !reflect.DeepEqual(c.seeds, w.seeds) {
			t.Fatalf("assess(%v) node %d: kind %d entry %p seeds %d, reference kind %d entry %p seeds %d",
				req, c.n.id, c.kind, c.entry, len(c.seeds), w.kind, w.entry, len(w.seeds))
		}
	}
}

// mustAudit fails the test when a node's incremental admission state
// has drifted from its request list.
func mustAudit(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// equivalenceMenu mixes cache-friendly repeats, near misses, the
// 0.43/0.47 pair that shares a cache key but not a solo bucket, a
// hopeless load and an unknown workload.
var equivalenceMenu = []Request{
	{Workload: "memcached", Load: 0.2}, {Workload: "memcached", Load: 0.2},
	{Workload: "memcached", Load: 0.3}, {Workload: "memcached", Load: 0.35},
	{Workload: "memcached", Load: 0.43}, {Workload: "memcached", Load: 0.47},
	{Workload: "img-dnn", Load: 0.2}, {Workload: "img-dnn", Load: 0.3},
	{Workload: "xapian", Load: 0.2}, {Workload: "swaptions"}, {Workload: "swaptions"},
	{Workload: "streamcluster"}, {Workload: "memcached", Load: 1.4},
	{Workload: "not-a-workload", Load: 0.2},
}

// TestAssessMatchesStringKeyedReference drives a seeded
// Place/Remove/FailNode stream under every pre-filter × profile-cache
// setting and checks each arrival's typed assessment — per candidate
// kind, cache entry and warm seeds, plus the counters it moves —
// against the string-keyed reference, auditing node state after every
// mutating call.
func TestAssessMatchesStringKeyedReference(t *testing.T) {
	for _, noPre := range []bool{false, true} {
		for _, noCache := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefilter=%t/cache=%t", !noPre, !noCache), func(t *testing.T) {
				var total Stats
				for seed := int64(1); seed <= 2; seed++ {
					st := equivalenceStream(t, seed, noPre, noCache)
					total.PrefilterRejects += st.PrefilterRejects
					total.CacheHits += st.CacheHits
					total.CacheNearHits += st.CacheNearHits
				}
				// The streams must reach every layer they claim to check.
				if !noPre && total.PrefilterRejects == 0 {
					t.Error("no candidate was pre-filtered")
				}
				if !noCache && (total.CacheHits == 0 || total.CacheNearHits == 0) {
					t.Errorf("cache layers unexercised: %d hits, %d near hits", total.CacheHits, total.CacheNearHits)
				}
			})
		}
	}
}

func equivalenceStream(t *testing.T, seed int64, noPre, noCache bool) Stats {
	s := New(Options{Nodes: 4, Seed: seed, ScreenIterations: 6, ScreenWorkers: 1,
		DisablePrefilter: noPre, DisableProfileCache: noCache})
	rng := rand.New(rand.NewSource(seed))
	type hosted struct {
		node int
		req  Request
	}
	var placed []hosted
	deaths := 0
	for step := 0; step < 36; step++ {
		switch x := rng.Intn(10); {
		case x < 6:
			req := equivalenceMenu[rng.Intn(len(equivalenceMenu))]
			checkAssess(t, s, req)
			p, err := s.Place(req)
			if err == nil {
				placed = append(placed, hosted{p.Node, req})
			} else if !errors.Is(err, ErrUnplaceable) && req.Workload != "not-a-workload" {
				t.Fatalf("Place(%v): %v", req, err)
			}
		case x < 9:
			if len(placed) == 0 {
				continue
			}
			k := rng.Intn(len(placed))
			if err := s.Remove(placed[k].node, placed[k].req); err != nil {
				t.Fatalf("Remove(%+v): %v", placed[k], err)
			}
			placed = append(placed[:k], placed[k+1:]...)
		default:
			if deaths == 2 {
				continue
			}
			deaths++
			id := rng.Intn(4)
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
		mustAudit(t, s)
	}
	return s.Stats()
}
