// Package profile is the cluster scheduler's memory: a co-location
// profile cache that memoizes screening outcomes per canonicalized job
// mix, plus per-workload solo profiles that power an analytical
// admission pre-filter.
//
// The paper's warehouse-scale pitch (Sec. 1, Sec. 4) is that
// infeasible co-locations are detected cheaply and "scheduled
// elsewhere without wasting any BO cycles". A warehouse sees the same
// job mixes over and over — the scheduler should pay the BO screening
// cost for a mix once, not once per node per request. Nodes are
// homogeneous here (same topology, same spec), so feasibility of a
// mix is a property of the mix, not of the node it is tried on; the
// cache exploits exactly that.
//
// Three mechanisms, in the order a placement consults them:
//
//   - Solo profiles: for each workload at a floor-quantized load, the
//     minimal per-resource allocation that meets QoS when every other
//     resource is at its full-machine value. Summed over a mix (a
//     Demand) these give an optimistic feasibility bound — if some
//     resource's minima already exceed its capacity, no partition can
//     work and the candidate is rejected with zero BO iterations.
//   - Exact hits: a mix whose canonical key has been screened before
//     reuses the memoized verdict and partition; the scheduler
//     validates a feasible hit with a single observation window
//     instead of a BO run.
//   - Near misses: a mix with the same workload multiset but slightly
//     different loads warm-starts the BO engine with the cached run's
//     best configurations instead of the engineered bootstrap.
//
// Keys are typed, not formatted. Workload names are interned once per
// process to small IDs; loads become integer LoadQuantum counts —
// rounded for the cache key, floored for the solo bucket (0.43 and
// 0.47 share a cache key but not a solo bucket). A mix packs into a
// Mix: fixed-width (ID, quantum) pairs in sorted order, so equal
// multisets pack to equal bytes and a lookup keyed by string(mix)
// never allocates. Callers keep a node's Mix and Demand up to date as
// jobs come and go, which turns a candidate's key into one sorted
// insert and its pre-filter into one vector test.
//
// Loads in the same bucket are treated as the same co-location. That
// is the cache's accuracy/throughput trade-off, and the single
// observation window the scheduler spends validating a cached
// partition on its target node is what keeps a stale or bucket-blurred
// entry from admitting a violating placement unchecked.
package profile

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"clite/internal/core"
	"clite/internal/qos"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/workload"
)

// LoadQuantum is the width of the load buckets mix keys quantize
// into: 5% of a workload's calibrated maximum, matching the paper's
// "memcached at 40%" granularity of describing offered load.
const LoadQuantum = 0.05

// ID is a workload name interned to a small integer. The Table 3
// registry is interned up front in name order, so for registered
// workloads ID order is name order; any other name gets the next free
// ID on first use. IDs are stable for the life of the process only.
type ID uint16

// maxID is the last ID the intern table hands out. Names beyond it all
// share it: they can only come from unregistered workloads, which
// never screen successfully, so they never reach a stored entry.
const maxID = math.MaxUint16

var (
	// registered is the read-only intern table of the workload
	// registry, built once per process.
	registered = internRegistry()

	// extra interns names outside the registry.
	extra struct {
		mu  sync.Mutex
		ids map[string]ID
	}
)

func internRegistry() map[string]ID {
	var names []string
	for _, p := range workload.All() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	ids := make(map[string]ID, len(names))
	for i, n := range names {
		ids[n] = ID(i)
	}
	return ids
}

// intern returns the workload name's ID.
func intern(name string) ID {
	if id, ok := registered[name]; ok {
		return id
	}
	extra.mu.Lock()
	defer extra.mu.Unlock()
	if id, ok := extra.ids[name]; ok {
		return id
	}
	next := len(registered) + len(extra.ids)
	if next > maxID {
		return maxID
	}
	if extra.ids == nil {
		extra.ids = make(map[string]ID)
	}
	extra.ids[name] = ID(next)
	return ID(next)
}

// keyQuantum is a load's cache-key bucket: the nearest multiple of
// LoadQuantum, in quanta. Loads that round to zero or below (and NaN)
// key like a background job; loads beyond the uint16 range saturate,
// far outside the [0, 1.5] every caller validates.
func keyQuantum(load float64) uint16 {
	q := math.Round(load / LoadQuantum)
	if !(q > 0) {
		return 0
	}
	if q > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(q)
}

// soloQuantum is a load's solo bucket, in quanta: floored, so the
// bound stays optimistic (a job at 0.43 needs at least what it needs
// at 0.40), but never below one quantum for a job with any load.
func soloQuantum(load float64) int {
	q := math.Floor(load/LoadQuantum + 1e-9)
	if load > 0 && q < 1 {
		q = 1
	}
	return int(q)
}

// JobKey is one job of a mix in packed form: the workload's ID in the
// high 16 bits and its keyQuantum in the low 16, so JobKey order is
// (workload, load) order.
type JobKey uint32

// Pack returns the JobKey of a job.
func Pack(name string, load float64) JobKey {
	return JobKey(intern(name))<<16 | JobKey(keyQuantum(load))
}

// Workload returns the job's interned workload.
func (j JobKey) Workload() ID { return ID(j >> 16) }

// Quantum returns the job's cache-key load bucket, in quanta.
func (j JobKey) Quantum() int { return int(j & 0xFFFF) }

// jobBytes is the width of one packed job in a Mix.
const jobBytes = 4

// Mix is a canonical job mix: its jobs' JobKeys, big-endian and sorted
// ascending. The same multiset of jobs always packs to the same bytes,
// whatever order the jobs arrived in, so a Mix is the cache key. The
// zero value is the empty mix.
type Mix []byte

// Len returns the number of jobs in the mix.
func (m Mix) Len() int { return len(m) / jobBytes }

// At returns the mix's i-th job in canonical order.
func (m Mix) At(i int) JobKey { return JobKey(binary.BigEndian.Uint32(m[i*jobBytes:])) }

// search returns the byte offset j sorts into, after any equal jobs.
func (m Mix) search(j JobKey) int {
	for off := 0; off < len(m); off += jobBytes {
		if JobKey(binary.BigEndian.Uint32(m[off:])) > j {
			return off
		}
	}
	return len(m)
}

// Insert adds j to the mix in place, keeping canonical order, and
// returns the (possibly reallocated) mix.
func (m Mix) Insert(j JobKey) Mix {
	off := m.search(j)
	m = append(m, 0, 0, 0, 0)
	copy(m[off+jobBytes:], m[off:])
	binary.BigEndian.PutUint32(m[off:], uint32(j))
	return m
}

// Delete removes one occurrence of j from the mix in place and
// reports whether there was one.
func (m Mix) Delete(j JobKey) (Mix, bool) {
	for off := 0; off < len(m); off += jobBytes {
		if JobKey(binary.BigEndian.Uint32(m[off:])) == j {
			return append(m[:off], m[off+jobBytes:]...), true
		}
	}
	return m, false
}

// AppendInsert appends the mix with j inserted to dst: a candidate's
// key assembled in a caller-owned buffer without touching m.
func AppendInsert(dst []byte, m Mix, j JobKey) []byte {
	off := m.search(j)
	dst = append(dst, m[:off]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(j))
	return append(dst, m[off:]...)
}

// packed is a packed mix held either as a Mix or as an entry's Key.
type packed interface{ ~string | ~[]byte }

// appendSignature appends the mix's loads-erased form — its workload
// IDs in canonical order, the index near-miss lookups search under —
// to dst.
func appendSignature[K packed](dst []byte, mix K) []byte {
	for off := 0; off < len(mix); off += jobBytes {
		dst = append(dst, mix[off], mix[off+1])
	}
	return dst
}

// quantumAt returns the keyQuantum of the job at byte offset off.
func quantumAt[K packed](mix K, off int) int {
	return int(mix[off+2])<<8 | int(mix[off+3])
}

// Entry is one memoized screening outcome.
type Entry struct {
	// Key is the packed canonical mix the entry is stored under,
	// string(Mix).
	Key string
	// Feasible records the screening verdict: every LC job of the mix
	// met its QoS target under the best partition found.
	Feasible bool
	// Result is the screening run's outcome; Result.Best is the
	// known-feasible partition an exact hit reuses.
	Result core.Result
	// Seeds are the run's most promising configurations, used to
	// warm-start the BO engine on a near-miss.
	Seeds []resource.Config
}

// SeedsFor returns the entry's warm-start configurations for a mix of
// nJobs jobs (cached configs with a different job count cannot seed
// the search and are dropped).
func (e *Entry) SeedsFor(nJobs int) []resource.Config {
	var out []resource.Config
	for _, cfg := range e.Seeds {
		if cfg.NumJobs() == nJobs {
			out = append(out, cfg)
		}
	}
	return out
}

// MaxSeeds bounds how many configurations an entry retains for
// warm-starting: the best partition plus the top few distinct
// runners-up.
const MaxSeeds = 4

// SeedsFromResult extracts the warm-start set from a screening run:
// the best configuration first, then the highest-scoring distinct
// usable samples from the trace.
func SeedsFromResult(res core.Result) []resource.Config {
	var out []resource.Config
	seen := map[string]bool{}
	add := func(cfg resource.Config) {
		if len(out) >= MaxSeeds || cfg.NumJobs() == 0 || seen[cfg.Key()] {
			return
		}
		seen[cfg.Key()] = true
		out = append(out, cfg.Clone())
	}
	add(res.Best)
	// Partial selection sort of the history by score, descending.
	idx := make([]int, 0, len(res.History))
	for i, s := range res.History {
		if s.Usable() {
			idx = append(idx, i)
		}
	}
	for k := 0; k < len(idx) && len(out) < MaxSeeds; k++ {
		for i := k + 1; i < len(idx); i++ {
			if res.History[idx[i]].Score > res.History[idx[k]].Score {
				idx[k], idx[i] = idx[i], idx[k]
			}
		}
		add(res.History[idx[k]].Config)
	}
	return out
}

// Cache memoizes screening outcomes. It is safe for concurrent use;
// every mutation is deterministic given the sequence of calls, so
// schedulers that commit entries in a fixed order get identical cache
// evolution at any worker count. Its solo profiles come from the
// process memo of its topology.
type Cache struct {
	topo  resource.Topology
	solos *soloTable

	mu      sync.Mutex
	entries map[string]*Entry   // by string(Mix)
	bySig   map[string][]*Entry // insertion order per signature
	journal []*Entry            // entries in Store order, for EntriesSince

	// cals memoizes analytic p95s; an overlay shares its hub's.
	cals *server.Calibrations
}

// NewCache returns an empty cache over the node topology.
func NewCache(topo resource.Topology) *Cache {
	return newCache(topo, analytics.table(topo), server.NewCalibrations())
}

func newCache(topo resource.Topology, solos *soloTable, cals *server.Calibrations) *Cache {
	return &Cache{
		topo:    topo,
		solos:   solos,
		entries: make(map[string]*Entry),
		bySig:   make(map[string][]*Entry),
		cals:    cals,
	}
}

// NewOverlay returns an empty cache over hub's topology that shares
// hub's p95 memo, while mix entries stay private. This is the
// fleet's per-cell cache shape: the screening memos — whose contents
// depend on which cell screened the mix — are kept cell-local and
// exchanged only at deterministic sync points via EntriesSince +
// Store, so cache evolution never depends on how many shards ran
// concurrently.
func NewOverlay(hub *Cache) *Cache {
	return newCache(hub.topo, hub.solos, hub.cals)
}

// Calibrations returns the cache's analytic p95 memo (an overlay's is
// its hub's), so the schedulers sharing the cache share it with their
// machines instead of computing each p95 again.
func (c *Cache) Calibrations() *server.Calibrations { return c.cals }

// Lookup returns the entry stored under the exact mix.
func (c *Cache) Lookup(mix Mix) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(mix)]
	return e, ok
}

// NearTolerance is the default per-job load distance within which a
// cached mix may warm-start the search for a new one: two quantization
// buckets.
const NearTolerance = 2 * LoadQuantum

// LookupNear finds a warm-start donor for the mix: an entry with the
// same workload multiset whose per-job (canonically paired, quantized)
// loads are all within tol, excluding the exact mix itself. Among
// candidates the smallest total load distance wins, ties to the
// earliest-stored entry — a pure function of cache state, so lookups
// stay deterministic. Only feasible entries donate: seeding a search
// with the samples of a run that never found the feasible region would
// anchor it on failure.
func (c *Cache) LookupNear(mix Mix, tol float64) (*Entry, bool) {
	var buf [64]byte
	sig := appendSignature(buf[:0], mix)
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *Entry
	bestDist := 0
	for _, e := range c.bySig[string(sig)] {
		if !e.Feasible || e.Key == string(mix) {
			continue
		}
		// A shared signature means equal length and the same workload
		// at every position, so only the quanta differ.
		total, ok := 0, true
		for off := 0; off < len(mix); off += jobBytes {
			d := quantumAt(e.Key, off) - quantumAt(mix, off)
			if d < 0 {
				d = -d
			}
			if float64(d)*LoadQuantum > tol+1e-9 {
				ok = false
				break
			}
			total += d
		}
		if ok && (best == nil || total < bestDist) {
			best, bestDist = e, total
		}
	}
	return best, best != nil
}

// Store commits an entry under its Key, first write wins: schedulers
// screening several equivalent candidates keep the outcome of the
// first (in deterministic candidate order), which makes the cache's
// evolution independent of screening concurrency. It reports whether
// the entry was stored. Store never modifies the entry, so one entry
// may be stored into many caches (the fleet's barrier adoption).
func (c *Cache) Store(e *Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[e.Key]; exists {
		return false
	}
	c.entries[e.Key] = e
	sig := string(appendSignature(nil, e.Key))
	c.bySig[sig] = append(c.bySig[sig], e)
	c.journal = append(c.journal, e)
	return true
}

// EntriesSince returns the entries committed after the given journal
// mark (0 means everything), in Store order, plus the new mark. Marks
// only grow, so a caller polling at sync barriers sees every entry
// exactly once; the returned slice is a copy and safe to iterate while
// other goroutines keep storing. Entries are treated as immutable once
// stored — adopters pass them straight to another cache's Store, whose
// first-write-wins rule keeps adoption idempotent.
func (c *Cache) EntriesSince(mark int) ([]*Entry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mark < 0 {
		mark = 0
	}
	if mark >= len(c.journal) {
		return nil, len(c.journal)
	}
	out := make([]*Entry, len(c.journal)-mark)
	copy(out, c.journal[mark:])
	return out, len(c.journal)
}

// Len returns the number of stored mix entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Solo is the analytical solo profile of one workload at one
// (floor-quantized) load: what the job needs of each resource when it
// has the rest of the machine to itself. MinUnits[r] is a lower bound
// on the job's share of resource r in ANY feasible partition — the
// other jobs can only take resources away from the solo setting — so
// sums of minima are a sound, optimistic admission bound.
type Solo struct {
	Workload string
	// Load is the floor-quantized load the profile was computed at.
	// Flooring keeps the bound optimistic: a job at 0.43 needs at
	// least what it needs at 0.40.
	Load float64
	LC   bool
	// Feasible reports whether the job meets QoS with the whole
	// machine; a solo-infeasible job makes every mix containing it
	// infeasible (the paper's Sec. 4 ejection case).
	Feasible bool
	// MinUnits is the per-resource minimum (topology order); nil when
	// !Feasible.
	MinUnits []int
}

// Solo returns the solo profile of the workload at the load from the
// process memo, computing it on first use of the (topology, workload,
// solo bucket): one binary search per resource over the noise-free
// workload model, a few hundred queue evaluations.
func (c *Cache) Solo(name string, load float64) (*Solo, error) {
	return c.solos.solo(name, load)
}

// soloTables is the process memo of solo profiles: one table per
// topology, shared by every cache over it. A solo profile is a pure
// function of (topology, workload, solo bucket) — the paper derives
// per-job bounds offline, once — so every fleet and scheduler in the
// process profiles each bucket once. It keeps tables for at most
// memoTopologies topologies; a cache over a further topology gets a
// private table that lives and dies with it.
type soloTables struct {
	mu     sync.Mutex
	byTopo map[string]*soloTable
}

// memoTopologies bounds the topologies soloTables keeps.
const memoTopologies = 16

// analytics is the process's solo-profile memo.
var analytics = soloTables{byTopo: make(map[string]*soloTable)}

// table returns the memo table of topo.
func (t *soloTables) table(topo resource.Topology) *soloTable {
	key := topo.Key()
	t.mu.Lock()
	defer t.mu.Unlock()
	if tab, ok := t.byTopo[key]; ok {
		return tab
	}
	tab := &soloTable{topo: topo, m: make(map[soloKey]*Solo)}
	if len(t.byTopo) < memoTopologies {
		t.byTopo[key] = tab
	}
	return tab
}

// soloTable memoizes one topology's solo profiles by workload and solo
// bucket. Profiles are computed outside the lock and the first write
// wins, so callers racing on one key all get the stored profile. It
// holds at most soloMemoCap profiles (every registered workload at
// every bucket of a load in [0, 1.5] fits with room to spare); past
// the cap, profiles are computed and not stored.
type soloTable struct {
	topo resource.Topology
	mu   sync.Mutex
	m    map[soloKey]*Solo
}

// soloMemoCap bounds one soloTable.
const soloMemoCap = 4096

// soloKey indexes solo profiles by workload and solo bucket.
type soloKey struct {
	id ID
	q  int
}

// solo returns the table's profile of the workload at the load,
// taking an LC workload's calibration from the process memo on first
// use.
func (t *soloTable) solo(name string, load float64) (*Solo, error) {
	q := soloQuantum(load)
	key := soloKey{intern(name), q}
	t.mu.Lock()
	s, ok := t.m[key]
	t.mu.Unlock()
	if ok {
		return s, nil
	}
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	var cal qos.Calibration
	if p.Class == workload.LatencyCritical {
		if cal, err = server.Calibrate(p, t.topo); err != nil {
			return nil, err
		}
	}
	s = computeSolo(t.topo, p, cal, float64(q)*LoadQuantum)
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.m[key]; ok {
		return prev, nil
	}
	if len(t.m) < soloMemoCap {
		t.m[key] = s
	}
	return s, nil
}

// computeSolo is the solo profile of workload p at the load over topo,
// given an LC workload's calibration there.
func computeSolo(topo resource.Topology, p *workload.Profile, cal qos.Calibration, load float64) *Solo {
	s := &Solo{Workload: p.Name, Load: load, LC: p.Class == workload.LatencyCritical}
	if !s.LC {
		// BG jobs have no QoS gate; their floor is the one unit of
		// everything feasibility already demands.
		s.Feasible = true
		s.MinUnits = make([]int, len(topo))
		for r := range s.MinUnits {
			s.MinUnits[r] = 1
		}
		return s
	}
	lambda := load * cal.MaxQPS
	full := make(resource.Allocation, len(topo))
	for r := range topo {
		full[r] = topo[r].Units
	}
	meets := func(alloc resource.Allocation) bool {
		return p.P95(workload.Physical(topo, alloc), lambda, server.DefaultWindow) <= cal.QoSTarget
	}
	if !meets(full) {
		return s // Feasible=false: hopeless even with everything
	}
	s.Feasible = true
	s.MinUnits = make([]int, len(topo))
	probe := full.Clone()
	for r := range topo {
		// p95 is monotone in every resource share (more never hurts in
		// the workload model), so the minimal feasible share is found
		// by bisection over [1, Units] with the other resources full.
		lo, hi := 1, topo[r].Units
		for lo < hi {
			mid := (lo + hi) / 2
			probe[r] = mid
			if meets(probe) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		s.MinUnits[r] = lo
		probe[r] = full[r]
	}
	return s
}

// Demand is the admission pre-filter's running state for one mix:
// the per-resource sum of its jobs' solo minima and how many of its
// jobs are solo-infeasible. A scheduler keeps one per node, updated as
// jobs arrive and leave, so testing a candidate is one O(resources)
// vector check instead of a walk over the node's jobs. The zero value
// is the empty mix.
type Demand struct {
	need       []int
	infeasible int
}

// Add accounts for a job with solo profile s joining the mix.
func (d *Demand) Add(s *Solo) { d.apply(s, 1) }

// Sub accounts for a job with solo profile s leaving the mix.
func (d *Demand) Sub(s *Solo) { d.apply(s, -1) }

func (d *Demand) apply(s *Solo, sign int) {
	if !s.Feasible {
		d.infeasible += sign
		return
	}
	if len(d.need) == 0 {
		d.need = make([]int, len(s.MinUnits))
	}
	for r, u := range s.MinUnits {
		d.need[r] += sign * u
	}
}

// CopyFrom makes d the demand of src's mix, reusing d's storage.
func (d *Demand) CopyFrom(src *Demand) {
	d.need = append(d.need[:0], src.need...)
	d.infeasible = src.infeasible
}

// Reset empties the mix, keeping the vector's storage.
func (d *Demand) Reset() {
	clear(d.need)
	d.infeasible = 0
}

// Feasible reports whether every job of the mix is solo-feasible.
func (d *Demand) Feasible() bool { return d.infeasible == 0 }

// Need returns the summed minimum of resource r.
func (d *Demand) Need(r int) int {
	if len(d.need) == 0 {
		return 0
	}
	return d.need[r]
}

// Admits applies the analytical admission pre-filter to the mix plus
// one job with solo profile s: it rejects if any job is solo-infeasible
// or any resource's summed minima exceed its capacity in topo. A true
// verdict proves nothing (the bound is optimistic — interference-free
// minima can coexist on paper but not in any real partition); a false
// verdict is decisive under the noise-free model, which is exactly the
// cheap "schedule it elsewhere" detection the paper calls for.
func (d *Demand) Admits(topo resource.Topology, s *Solo) bool {
	if !d.Feasible() || !s.Feasible {
		return false
	}
	for r, spec := range topo {
		if d.Need(r)+s.MinUnits[r] > spec.Units {
			return false
		}
	}
	return true
}
