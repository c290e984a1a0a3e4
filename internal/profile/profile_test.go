package profile

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"clite/internal/core"
	"clite/internal/resource"
)

func TestKeyIsOrderInsensitive(t *testing.T) {
	jobs := []Job{{"memcached", 0.4}, {"img-dnn", 0.2}, {"swaptions", 0}}
	a := keyOf(jobs)
	b := keyOf([]Job{{"swaptions", 0}, {"img-dnn", 0.2}, {"memcached", 0.4}})
	if a != b {
		t.Errorf("keys diverge on request order: %x vs %x", a, b)
	}
	if got := refKey(decode(a)); got != "img-dnn@0.20|memcached@0.40|swaptions" {
		t.Errorf("unexpected canonical key %q", got)
	}
	if got := refKey(jobs); got != "img-dnn@0.20|memcached@0.40|swaptions" {
		t.Errorf("reference key %q", got)
	}
}

func TestKeyQuantizesLoads(t *testing.T) {
	a := keyOf([]Job{{"memcached", 0.41}})
	b := keyOf([]Job{{"memcached", 0.39}})
	c := keyOf([]Job{{"memcached", 0.33}})
	if a != b {
		t.Errorf("0.41 and 0.39 should share the 0.40 bucket: %x vs %x", a, b)
	}
	if a == c {
		t.Errorf("0.41 and 0.33 should land in different buckets: both %x", a)
	}
}

// TestKeyRoundsSoloBucketFloors pins the two quantizations apart: the
// cache key rounds a load to the nearest bucket, the solo bucket floors
// it. 0.43 and 0.47 both round to 0.45 — one cache key — but floor to
// 0.40 and 0.45, two solo profiles. Keying the pre-filter on the cache
// key would lift 0.43's bound to 0.45's and break its optimism.
func TestKeyRoundsSoloBucketFloors(t *testing.T) {
	if Pack("memcached", 0.43) != Pack("memcached", 0.47) {
		t.Error("0.43 and 0.47 should share the 0.45 cache-key bucket")
	}
	if refKey([]Job{{"memcached", 0.43}}) != refKey([]Job{{"memcached", 0.47}}) {
		t.Error("reference keys disagree on the shared bucket")
	}
	c := NewCache(resource.Default())
	lo, err := c.Solo("memcached", 0.43)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.Solo("memcached", 0.47)
	if err != nil {
		t.Fatal(err)
	}
	if lo == hi || math.Abs(lo.Load-0.40) > 1e-9 || math.Abs(hi.Load-0.45) > 1e-9 {
		t.Errorf("solo buckets = %.2f and %.2f, want 0.40 and 0.45 as separate profiles", lo.Load, hi.Load)
	}
}

func TestKeyDistinguishesDuplicateLoads(t *testing.T) {
	one := keyOf([]Job{{"memcached", 0.2}})
	two := keyOf([]Job{{"memcached", 0.2}, {"memcached", 0.2}})
	if one == two {
		t.Error("one and two copies of the same job must not collide")
	}
}

func TestMixInsertDeleteRoundTrip(t *testing.T) {
	jobs := []Job{{"xapian", 0.2}, {"memcached", 0.4}, {"swaptions", 0}, {"memcached", 0.2}, {"memcached", 0.4}}
	var m Mix
	for _, j := range jobs {
		m = m.Insert(Pack(j.Workload, j.Load))
	}
	if want := keyOf(jobs); string(m) != want {
		t.Fatalf("incremental mix %x, want %x", m, want)
	}
	var ok bool
	if m, ok = m.Delete(Pack("memcached", 0.4)); !ok {
		t.Fatal("delete of a present job failed")
	}
	if want := keyOf([]Job{{"xapian", 0.2}, {"memcached", 0.4}, {"swaptions", 0}, {"memcached", 0.2}}); string(m) != want {
		t.Errorf("after delete %x, want %x", m, want)
	}
	if _, ok = m.Delete(Pack("img-dnn", 0.2)); ok {
		t.Error("delete of an absent job succeeded")
	}
	buf := AppendInsert([]byte("prefix"), m, Pack("img-dnn", 0.2))
	if want := keyOf([]Job{{"img-dnn", 0.2}, {"xapian", 0.2}, {"memcached", 0.4}, {"swaptions", 0}, {"memcached", 0.2}}); string(buf[len("prefix"):]) != want {
		t.Errorf("AppendInsert %x, want %x", buf[len("prefix"):], want)
	}
}

func resultWithBest(topo resource.Topology, nJobs int, score float64) core.Result {
	cfg := resource.EqualSplit(topo, nJobs)
	return core.Result{
		Best:        cfg,
		BestScore:   score,
		QoSMeetable: score > 0.5,
		History:     []core.Step{{Config: cfg, Score: score}},
	}
}

func TestStoreFirstWriteWins(t *testing.T) {
	c := NewCache(resource.Small())
	jobs := []Job{{"memcached", 0.2}}
	e1 := &Entry{Key: keyOf(jobs), Feasible: true, Result: resultWithBest(resource.Small(), 1, 0.9)}
	e2 := &Entry{Key: keyOf(jobs), Feasible: false}
	if !c.Store(e1) {
		t.Fatal("first store must succeed")
	}
	if c.Store(e2) {
		t.Error("second store of the same key must be a no-op")
	}
	got, ok := c.Lookup(mixOf(jobs))
	if !ok || !got.Feasible {
		t.Fatalf("lookup returned %+v, want the first entry", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestLookupNearFindsClosestFeasibleDonor(t *testing.T) {
	topo := resource.Small()
	c := NewCache(topo)
	mk := func(load float64, feasible bool) *Entry {
		return &Entry{
			Key:      keyOf([]Job{{"memcached", load}, {"swaptions", 0}}),
			Feasible: feasible,
			Result:   resultWithBest(topo, 2, 0.9),
		}
	}
	c.Store(mk(0.40, true))
	c.Store(mk(0.30, true))
	c.Store(mk(0.25, false)) // closest, but infeasible: must not donate

	probe := mixOf([]Job{{"memcached", 0.25}, {"swaptions", 0}})
	e, ok := c.LookupNear(probe, NearTolerance)
	if !ok {
		t.Fatal("expected a near hit")
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if load := decode(e.Key)[0].Load; !near(load, 0.30) {
		t.Errorf("donor load = %.2f, want the closest feasible 0.30", load)
	}

	// Exact-key entries never count as near donors.
	c.Store(mk(0.25, true))
	e, ok = c.LookupNear(probe, NearTolerance)
	if !ok || !near(decode(e.Key)[0].Load, 0.30) {
		t.Errorf("exact key leaked into the near lookup: %+v", e)
	}

	// Different workload multisets never match.
	if _, ok := c.LookupNear(mixOf([]Job{{"img-dnn", 0.30}, {"swaptions", 0}}), NearTolerance); ok {
		t.Error("near lookup crossed workload multisets")
	}
	// Beyond tolerance is a miss.
	if _, ok := c.LookupNear(mixOf([]Job{{"memcached", 0.60}, {"swaptions", 0}}), NearTolerance); ok {
		t.Error("near lookup exceeded tolerance")
	}
}

func TestSeedsFromResultRanksAndDedups(t *testing.T) {
	topo := resource.Small()
	best := resource.EqualSplit(topo, 2)
	alt := resource.Extremum(topo, 2, 0)
	alt2 := resource.Extremum(topo, 2, 1)
	res := core.Result{
		Best: best,
		History: []core.Step{
			{Config: alt, Score: 0.7},
			{Config: best, Score: 0.9}, // duplicate of Best: dropped
			{Config: alt2, Score: 0.8},
			{Config: alt, Score: 0.6, Discarded: true}, // unusable: ignored
		},
	}
	seeds := SeedsFromResult(res)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3: %v", len(seeds), seeds)
	}
	if !seeds[0].Equal(best) {
		t.Error("best configuration must seed first")
	}
	if !seeds[1].Equal(alt2) || !seeds[2].Equal(alt) {
		t.Errorf("runners-up out of score order: %v", seeds[1:])
	}
	e := &Entry{Seeds: seeds}
	if got := e.SeedsFor(2); len(got) != 3 {
		t.Errorf("SeedsFor(2) = %d seeds, want 3", len(got))
	}
	if got := e.SeedsFor(3); len(got) != 0 {
		t.Errorf("SeedsFor(3) = %d seeds, want 0 (job count mismatch)", len(got))
	}
}

func TestSoloProfileShapes(t *testing.T) {
	c := NewCache(resource.Default())

	bg, err := c.Solo("swaptions", 0)
	if err != nil {
		t.Fatal(err)
	}
	if bg.LC || !bg.Feasible {
		t.Errorf("BG solo profile = %+v, want feasible non-LC", bg)
	}
	for r, u := range bg.MinUnits {
		if u != 1 {
			t.Errorf("BG min units[%d] = %d, want 1", r, u)
		}
	}

	light, err := c.Solo("memcached", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !light.LC || !light.Feasible {
		t.Fatalf("light memcached solo = %+v, want feasible LC", light)
	}
	heavy, err := c.Solo("memcached", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !heavy.Feasible {
		t.Fatal("90% memcached must be feasible alone (it is below the knee)")
	}
	for r := range light.MinUnits {
		if heavy.MinUnits[r] < light.MinUnits[r] {
			t.Errorf("resource %d: heavier load needs fewer units (%d < %d)",
				r, heavy.MinUnits[r], light.MinUnits[r])
		}
	}

	hopeless, err := c.Solo("memcached", 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if hopeless.Feasible {
		t.Error("140% of the knee must be solo-infeasible")
	}

	if _, err := c.Solo("not-a-workload", 0.2); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestAdmissiblePrefilter(t *testing.T) {
	topo := resource.Default()
	c := NewCache(topo)
	// admissible runs the pre-filter on the last job joining a Demand
	// built from the others, the way a scheduler tests a candidate.
	admissible := func(jobs []Job) bool {
		t.Helper()
		var d Demand
		solos := make([]*Solo, len(jobs))
		for i, j := range jobs {
			s, err := c.Solo(j.Workload, j.Load)
			if err != nil {
				t.Fatal(err)
			}
			solos[i] = s
		}
		for _, s := range solos[:len(solos)-1] {
			d.Add(s)
		}
		return d.Admits(topo, solos[len(solos)-1])
	}

	if !admissible([]Job{{"memcached", 0.2}, {"swaptions", 0}}) {
		t.Fatal("light mix rejected")
	}
	// A solo-infeasible job poisons any mix, as arrival or resident.
	if admissible([]Job{{"memcached", 1.4}}) {
		t.Fatal("hopeless job admitted")
	}
	if admissible([]Job{{"memcached", 1.4}, {"swaptions", 0}}) {
		t.Fatal("mix with a hopeless resident admitted")
	}
	// Four near-saturation memcacheds cannot sum under capacity.
	if admissible([]Job{{"memcached", 0.9}, {"memcached", 0.9}, {"memcached", 0.9}, {"memcached", 0.9}}) {
		t.Error("four 90% memcacheds passed the capacity bound")
	}
	// More jobs than units of some resource is structurally infeasible.
	var dozen []Job
	for i := 0; i < 12; i++ {
		dozen = append(dozen, Job{Workload: "swaptions"})
	}
	if admissible(dozen) {
		t.Error("12 jobs on an 11-way LLC admitted")
	}

	// Sub undoes Add, so a departure restores the bound exactly.
	heavy, err := c.Solo("memcached", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	hopeless, err := c.Solo("memcached", 1.4)
	if err != nil {
		t.Fatal(err)
	}
	var d Demand
	d.Add(heavy)
	d.Add(hopeless)
	d.Sub(hopeless)
	d.Sub(heavy)
	if !d.Feasible() {
		t.Error("Demand stays infeasible after its hopeless job left")
	}
	for r := range topo {
		if d.Need(r) != 0 {
			t.Errorf("resource %d: empty Demand needs %d units", r, d.Need(r))
		}
	}
}

func TestCacheConcurrentUse(t *testing.T) {
	topo := resource.Small()
	c := NewCache(topo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				jobs := []Job{{Workload: fmt.Sprintf("w%d", i%5), Load: 0.2}}
				c.Store(&Entry{Key: keyOf(jobs), Feasible: true, Result: resultWithBest(topo, 1, 0.8)})
				c.Lookup(mixOf(jobs))
				c.LookupNear(mixOf(jobs), NearTolerance)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 5 {
		t.Errorf("Len = %d, want 5 distinct keys", c.Len())
	}
}

// TestCacheShardedFirstWriteWins races several scheduler shards
// against one shared cache, all profiling the same five mixes with
// shard-stamped scores. Exactly one shard may win each key, every
// concurrent Lookup/LookupNear hit must already show the eventual
// winner (a stored entry is never replaced), and the journal must
// list each winner exactly once. make race runs this under -race.
func TestCacheShardedFirstWriteWins(t *testing.T) {
	topo := resource.Small()
	hub := NewCache(topo)
	const shards, mixes = 6, 5
	wins := make([]map[string]bool, shards)
	seen := make([]map[string]float64, shards) // key -> score observed via lookups
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			wins[s] = map[string]bool{}
			seen[s] = map[string]float64{}
			for i := 0; i < 40; i++ {
				jobs := []Job{{Workload: fmt.Sprintf("mix%d", i%mixes), Load: 0.2}}
				e := &Entry{Key: keyOf(jobs), Feasible: true,
					Result: resultWithBest(topo, 1, 0.6+float64(s)/100)}
				if hub.Store(e) {
					wins[s][e.Key] = true
				}
				if got, ok := hub.Lookup(mixOf(jobs)); ok {
					if prev, dup := seen[s][got.Key]; dup && prev != got.Result.BestScore {
						t.Errorf("shard %d saw key %x flip score %v -> %v", s, got.Key, prev, got.Result.BestScore)
					}
					seen[s][got.Key] = got.Result.BestScore
				}
				if got, ok := hub.LookupNear(mixOf(jobs), NearTolerance); ok {
					if prev, dup := seen[s][got.Key]; dup && prev != got.Result.BestScore {
						t.Errorf("shard %d saw key %x flip score %v -> %v", s, got.Key, prev, got.Result.BestScore)
					}
					seen[s][got.Key] = got.Result.BestScore
				}
			}
		}(s)
	}
	wg.Wait()
	if hub.Len() != mixes {
		t.Fatalf("Len = %d, want %d distinct keys", hub.Len(), mixes)
	}
	// Exactly one shard won each key, and the committed entry carries
	// that shard's stamp.
	winners := map[string]float64{}
	for s, w := range wins {
		for key := range w {
			if _, taken := winners[key]; taken {
				t.Errorf("key %x reported two winning stores", key)
			}
			winners[key] = 0.6 + float64(s)/100
		}
	}
	if len(winners) != mixes {
		t.Fatalf("winning stores cover %d keys, want %d", len(winners), mixes)
	}
	for key, score := range winners {
		got, ok := hub.Lookup(Mix(key))
		if !ok || got.Result.BestScore != score {
			t.Errorf("key %x: committed score %v, want winning shard's %v", key, got.Result.BestScore, score)
		}
	}
	// Every lookup hit observed the final winner — first write wins
	// means no shard ever saw a value that was later replaced.
	for s, m := range seen {
		for key, score := range m {
			if score != winners[key] {
				t.Errorf("shard %d observed %v for %x, final winner is %v", s, score, key, winners[key])
			}
		}
	}
	// The journal lists each winner exactly once, in Store order.
	entries, mark := hub.EntriesSince(0)
	if mark != mixes || len(entries) != mixes {
		t.Fatalf("journal has %d entries (mark %d), want %d", len(entries), mark, mixes)
	}
	counts := map[string]int{}
	for _, e := range entries {
		counts[e.Key]++
	}
	for key := range winners {
		if counts[key] != 1 {
			t.Errorf("journal lists %x %d times, want once", key, counts[key])
		}
	}
}

// TestOverlaySyncAcrossShards follows the fleet's barrier protocol:
// shards profile into private overlays concurrently, then a
// sequential barrier lifts each overlay's new journal entries into
// the shared hub and pushes the hub's union back down. Each shard
// profiles its own mixes plus one contended mix everyone screens. The
// hub keeps the first-synced entry for the contended mix, overlays
// adopt every mix they didn't profile themselves, and adopted entries
// never echo back up on the next barrier.
func TestOverlaySyncAcrossShards(t *testing.T) {
	topo := resource.Small()
	hub := NewCache(topo)
	const shards = 4
	overlays := make([]*Cache, shards)
	marks := make([]int, shards)
	for s := range overlays {
		overlays[s] = NewOverlay(hub)
	}
	ownJobs := func(s int) []Job { return []Job{{Workload: fmt.Sprintf("own%d", s), Load: 0.4}} }
	contended := []Job{{Workload: "contended", Load: 0.4}}
	// Concurrent epoch work: each shard profiles its own mix and the
	// contended one, stamping its id into the score.
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			score := 0.6 + float64(s)/100
			overlays[s].Store(&Entry{Key: keyOf(ownJobs(s)), Feasible: true,
				Result: resultWithBest(topo, 1, score)})
			overlays[s].Store(&Entry{Key: keyOf(contended), Feasible: true,
				Result: resultWithBest(topo, 1, score)})
			overlays[s].LookupNear(mixOf(contended), NearTolerance)
		}(s)
	}
	wg.Wait()
	// Sequential barrier, in shard order: up to the hub, then the
	// union back down. Adopted entries bump the local mark so they
	// never echo back, mirroring internal/fleet's barrier.
	hubMark := 0
	for s := range overlays {
		entries, mark := overlays[s].EntriesSince(marks[s])
		marks[s] = mark
		for _, e := range entries {
			hub.Store(e)
		}
	}
	var fresh []*Entry
	fresh, hubMark = hub.EntriesSince(hubMark)
	for s := range overlays {
		for _, e := range fresh {
			if overlays[s].Store(e) {
				marks[s]++
			}
		}
	}
	wantLen := shards + 1 // one mix per shard plus the contended one
	if hubMark != wantLen || hub.Len() != wantLen {
		t.Fatalf("hub has %d entries (mark %d), want %d", hub.Len(), hubMark, wantLen)
	}
	// The hub kept shard 0's contended entry (first synced, in shard
	// order); each overlay keeps the version it profiled itself —
	// first write wins locally too — and everyone adopted every
	// foreign mix verbatim.
	if got, ok := hub.Lookup(mixOf(contended)); !ok || got.Result.BestScore != 0.6 {
		t.Fatalf("hub contended entry = %+v, want shard 0's", got)
	}
	for s := range overlays {
		if overlays[s].Len() != wantLen {
			t.Errorf("overlay %d has %d entries, want %d", s, overlays[s].Len(), wantLen)
		}
		if got, ok := overlays[s].Lookup(mixOf(contended)); !ok || got.Result.BestScore != 0.6+float64(s)/100 {
			t.Errorf("overlay %d contended entry = %+v, want its own", s, got)
		}
		for o := 0; o < shards; o++ {
			got, ok := overlays[s].Lookup(mixOf(ownJobs(o)))
			if !ok || got.Result.BestScore != 0.6+float64(o)/100 {
				t.Errorf("overlay %d missing shard %d's mix: %+v", s, o, got)
			}
		}
	}
	// A second barrier pass is a no-op: marks advanced past adopted
	// entries, so nothing echoes back up.
	for s := range overlays {
		entries, mark := overlays[s].EntriesSince(marks[s])
		marks[s] = mark
		if len(entries) != 0 {
			t.Errorf("overlay %d echoed %d adopted entries back to the hub", s, len(entries))
		}
	}
}
