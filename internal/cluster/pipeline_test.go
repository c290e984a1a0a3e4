package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/telemetry"
)

// stream is a repetitive request mix: the warehouse case the profile
// cache exists for.
func stream() []Request {
	return []Request{
		{Workload: "memcached", Load: 0.2},
		{Workload: "swaptions"},
		{Workload: "memcached", Load: 0.2},
		{Workload: "swaptions"},
		{Workload: "img-dnn", Load: 0.2},
		{Workload: "memcached", Load: 0.2},
	}
}

type placed struct {
	node  int
	key   string
	score float64
	err   string
}

func runStream(t *testing.T, opts Options, reqs []Request) ([]placed, Stats) {
	t.Helper()
	s := New(opts)
	out := make([]placed, 0, len(reqs))
	for _, r := range reqs {
		p, err := s.Place(r)
		mustAudit(t, s)
		rec := placed{node: -1}
		if err != nil {
			rec.err = err.Error()
		} else {
			rec.node = p.Node
			rec.key = p.Result.Best.Key()
			rec.score = p.Result.BestScore
		}
		out = append(out, rec)
	}
	return out, s.Stats()
}

// TestPlacementsByteIdenticalAcrossWorkerCounts pins the §8/§9
// determinism contract: the placement stream, the partition each job
// got, and every pipeline counter must not depend on how many
// screening workers ran.
func TestPlacementsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	reqs := stream()
	seq, seqStats := runStream(t, Options{Nodes: 3, Seed: 11, ScreenIterations: 8, ScreenWorkers: 1}, reqs)
	parl, parStats := runStream(t, Options{Nodes: 3, Seed: 11, ScreenIterations: 8, ScreenWorkers: 8}, reqs)
	for i := range seq {
		if seq[i] != parl[i] {
			t.Errorf("request %d diverged: sequential %+v, parallel %+v", i, seq[i], parl[i])
		}
	}
	if seqStats != parStats {
		t.Errorf("stats diverged:\n  1 worker: %+v\n  8 workers: %+v", seqStats, parStats)
	}
}

// TestProfileCacheSkipsRepeatScreens checks the headline saving: a
// repeated job mix must be admitted from the cache (one verification
// window), not re-screened with a fresh BO run.
func TestProfileCacheSkipsRepeatScreens(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 5, ScreenIterations: 8})
	first, err := s.Place(Request{Workload: "memcached", Load: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Stats()
	if cold.Screens == 0 || cold.BOIterations == 0 {
		t.Fatalf("cold placement ran no screen: %+v", cold)
	}
	// The empty nodes present the same solo mix: exact cache hit.
	second, err := s.Place(Request{Workload: "memcached", Load: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Node == first.Node {
		t.Errorf("repeat landed on the same node %d (expected a fresh node first in order)", second.Node)
	}
	warm := s.Stats()
	if warm.Screens != cold.Screens || warm.BOIterations != cold.BOIterations {
		t.Errorf("repeat mix paid a BO screen: cold %+v, warm %+v", cold, warm)
	}
	if warm.CacheHits == 0 {
		t.Errorf("no cache hit recorded: %+v", warm)
	}
	if warm.VerifyWindows != cold.VerifyWindows+1 {
		t.Errorf("repeat LC mix should cost exactly one verification window: cold %+v, warm %+v", cold, warm)
	}
	if !second.Result.Best.Equal(first.Result.Best) {
		t.Error("cached placement should reuse the memoized partition")
	}
}

// TestNearMissWarmStartsScreening checks that a mix close to a cached
// one screens warm from the donor's partitions instead of cold.
func TestNearMissWarmStartsScreening(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 7, ScreenIterations: 8})
	if _, err := s.Place(Request{Workload: "memcached", Load: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(Request{Workload: "memcached", Load: 0.3}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheNearHits == 0 || st.WarmScreens == 0 {
		t.Errorf("0.3 should warm-start from the cached 0.2 profile: %+v", st)
	}
}

// TestPrefilterRejectsWithoutScreening checks the zero-BO rejection
// path: a hopeless request must bounce off the analytical bound on
// every node without a single screening run.
func TestPrefilterRejectsWithoutScreening(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 9})
	_, err := s.Place(Request{Workload: "memcached", Load: 1.4})
	if !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("err = %v, want ErrUnplaceable", err)
	}
	st := s.Stats()
	if st.Screens != 0 || st.BOIterations != 0 {
		t.Errorf("hopeless request paid BO cycles: %+v", st)
	}
	if st.PrefilterRejects != 3 {
		t.Errorf("PrefilterRejects = %d, want 3 (one per node)", st.PrefilterRejects)
	}
	if st.Rejections != 1 {
		t.Errorf("Rejections = %d, want 1", st.Rejections)
	}
}

// TestAblationSwitchesDisableTheLayers makes sure the benchmarking
// switches really turn the layers off.
func TestAblationSwitchesDisableTheLayers(t *testing.T) {
	cache := profile.NewCache(resource.Default())
	s := New(Options{
		Nodes: 2, Seed: 3, ScreenIterations: 8, SharedProfiles: cache,
		DisableProfileCache: true, DisablePrefilter: true,
	})
	for i := 0; i < 2; i++ {
		if _, err := s.Place(Request{Workload: "memcached", Load: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheHits+st.CacheMisses+st.CacheNearHits != 0 {
		t.Errorf("cache consulted despite DisableProfileCache: %+v", st)
	}
	if st.PrefilterRejects != 0 {
		t.Errorf("prefilter ran despite DisablePrefilter: %+v", st)
	}
	if st.Screens != 2 {
		t.Errorf("Screens = %d, want 2 (every placement cold)", st.Screens)
	}
	if cache.Len() != 0 {
		t.Errorf("cache stored %d entries while disabled", cache.Len())
	}
}

// TestConcurrentPlaceIsSafe drives Place from many goroutines; run
// under -race this pins the locking. Placements serialize internally,
// so every accepted job must be visible afterwards.
func TestConcurrentPlaceIsSafe(t *testing.T) {
	s := New(Options{Nodes: 4, Seed: 13, ScreenIterations: 8})
	reqs := []Request{
		{Workload: "swaptions"},
		{Workload: "memcached", Load: 0.2},
		{Workload: "swaptions"},
		{Workload: "img-dnn", Load: 0.2},
		{Workload: "swaptions"},
		{Workload: "memcached", Load: 0.2},
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for _, r := range reqs {
		wg.Add(1)
		go func(r Request) {
			defer wg.Done()
			_, err := s.Place(r)
			if err != nil && !errors.Is(err, ErrUnplaceable) {
				t.Errorf("Place(%v): %v", r, err)
			}
			if err == nil {
				mu.Lock()
				accepted++
				mu.Unlock()
			}
			s.Snapshot()
		}(r)
	}
	wg.Wait()
	if got := s.Jobs(); got != accepted {
		t.Errorf("Jobs() = %d after %d accepted placements", got, accepted)
	}
	st := s.Stats()
	if st.Placements != accepted {
		t.Errorf("Stats.Placements = %d, want %d", st.Placements, accepted)
	}
}

// TestRehomeAfterFailureIsWorkerCountInvariant extends the byte-
// identity contract to the reschedule path.
func TestRehomeAfterFailureIsWorkerCountInvariant(t *testing.T) {
	run := func(workers int) ([]Outcome, Stats) {
		s := New(Options{Nodes: 3, Seed: 21, ScreenIterations: 8, ScreenWorkers: workers})
		for _, r := range stream()[:4] {
			if _, err := s.Place(r); err != nil {
				t.Fatal(err)
			}
			mustAudit(t, s)
		}
		out, err := s.FailNode(0)
		if err != nil {
			t.Fatal(err)
		}
		mustAudit(t, s)
		return out, s.Stats()
	}
	seq, seqStats := run(1)
	parl, parStats := run(8)
	if len(seq) != len(parl) {
		t.Fatalf("outcome counts diverge: %d vs %d", len(seq), len(parl))
	}
	for i := range seq {
		if seq[i].Node != parl[i].Node || seq[i].Request != parl[i].Request {
			t.Errorf("outcome %d diverged: %+v vs %+v", i, seq[i], parl[i])
		}
	}
	if seqStats != parStats {
		t.Errorf("stats diverged:\n  1 worker: %+v\n  8 workers: %+v", seqStats, parStats)
	}
}

// TestClusterTraceByteIdenticalAcrossWorkerCounts extends the §8
// determinism contract to the telemetry layer: the JSONL event stream
// from a traced placement run — including per-screen sub-traces merged
// at commit — must not depend on how many screening workers ran.
func TestClusterTraceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		tr := telemetry.NewTracer()
		s := New(Options{Nodes: 3, Seed: 11, ScreenIterations: 8, ScreenWorkers: workers, Trace: tr})
		for _, r := range stream() {
			if _, err := s.Place(r); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := run(1)
	parl := run(8)
	if seq != parl {
		t.Errorf("trace streams diverged between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", seq, parl)
	}
	if seq == "" {
		t.Fatal("traced run emitted no events")
	}
	kinds := telemetry.CountKinds(telemetryEventsFromJSONL(t, seq))
	for _, want := range []string{telemetry.KindPlacementPhase, telemetry.KindSpanBegin, telemetry.KindSpanEnd, telemetry.KindBOIteration} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %q events (got kinds %v)", want, kinds)
		}
	}
}

func telemetryEventsFromJSONL(t *testing.T, s string) []telemetry.Event {
	t.Helper()
	var evs []telemetry.Event
	dec := json.NewDecoder(strings.NewReader(s))
	for dec.More() {
		var e telemetry.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
	return evs
}

// TestStatsViewMatchesExternalRegistry pins the Stats migration: the
// struct is a view over the cluster_* counters, so an externally
// supplied registry must show exactly the same numbers.
func TestStatsViewMatchesExternalRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Nodes: 3, Seed: 5, ScreenIterations: 8, Metrics: reg})
	for _, r := range stream() {
		if _, err := s.Place(r); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	want := map[string]int{
		"cluster_placements_total":        st.Placements,
		"cluster_rejections_total":        st.Rejections,
		"cluster_prefilter_rejects_total": st.PrefilterRejects,
		"cluster_cache_hits_total":        st.CacheHits,
		"cluster_cache_misses_total":      st.CacheMisses,
		"cluster_cache_near_hits_total":   st.CacheNearHits,
		"cluster_screens_total":           st.Screens,
		"cluster_warm_screens_total":      st.WarmScreens,
		"cluster_bo_iterations_total":     st.BOIterations,
		"cluster_verify_windows_total":    st.VerifyWindows,
	}
	for name, v := range want {
		if got := int(reg.Counter(name).Value()); got != v {
			t.Errorf("%s: registry has %d, Stats view has %d", name, got, v)
		}
	}
	if st.Placements == 0 || st.Screens == 0 {
		t.Errorf("expected non-trivial pipeline activity, got %+v", st)
	}
}
