// Package cluster is the warehouse-scale layer above the single-node
// controller: a small scheduler that places a stream of job requests
// across multiple simulated nodes, running CLITE on each node to
// decide whether a candidate co-location is QoS-feasible and, if so,
// under what partition. It operationalizes the paper's Sec. 4 note
// that jobs which cannot meet QoS on a node "can be immediately
// scheduled elsewhere without wasting any BO cycles", and the
// introduction's warehouse-scale motivation: higher utilization comes
// from safely packing more LC and BG jobs per node.
//
// Placement throughput comes from three layers that each shave BO
// cycles off the admission path (DESIGN.md §9):
//
//   - an analytical admission pre-filter (profile.Demand) rejects
//     candidate nodes whose job mix cannot fit even under a per-job
//     optimistic bound, with zero BO iterations;
//   - a co-location profile cache keyed by the canonicalized job mix
//     memoizes screening outcomes: an exact hit skips BO entirely
//     (one verification window instead of a full search), a near hit
//     warm-starts BO from the donor's best partitions;
//   - surviving candidates are screened concurrently over internal/par
//     with an index-ordered reduction, so the chosen node is
//     byte-identical to the sequential first-feasible scan whatever
//     the worker count.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"clite/internal/bo"
	"clite/internal/core"
	"clite/internal/faults"
	"clite/internal/par"
	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/telemetry"
)

// Request asks the scheduler to place one job.
type Request struct {
	// Workload is a Table 3 workload name.
	Workload string
	// Load is the offered load for LC workloads (fraction of the
	// calibrated maximum); it must be 0 for BG workloads.
	Load float64
}

// IsLC reports whether the request is latency-critical (has a load).
func (r Request) IsLC() bool { return r.Load > 0 }

// Placement reports where a request landed and the partition found.
type Placement struct {
	Node   int
	Result core.Result
}

// ErrUnplaceable is returned when no node can host the request while
// keeping every co-located LC job inside its QoS target.
var ErrUnplaceable = errors.New("cluster: no node can host the job within QoS")

// Options configures the scheduler.
type Options struct {
	// Nodes is the cluster size (default 4).
	Nodes int
	// Seed drives all nodes' measurement noise and searches.
	Seed int64
	// ScreenIterations bounds the BO budget spent deciding whether a
	// candidate co-location is feasible (default 24: enough for the
	// bootstrap plus a focused feasibility hunt, cheap enough to try
	// several nodes).
	ScreenIterations int
	// ScreenWorkers bounds how many candidate nodes are screened
	// concurrently (0 means NumCPU). With 1 worker the scan is the
	// sequential first-feasible loop with early exit; with more, all
	// surviving candidates screen speculatively and an index-ordered
	// reduction picks the same node the sequential scan would — the
	// placement stream, the profile-cache contents, and the Stats
	// counters are byte-identical for every worker count (DESIGN.md
	// §8/§9).
	ScreenWorkers int
	// DisableProfileCache turns off the co-location profile cache:
	// every candidate is screened cold, nothing is memoized. Kept as
	// an ablation and benchmarking switch.
	DisableProfileCache bool
	// DisablePrefilter turns off the analytical admission pre-filter,
	// sending every candidate node straight to screening. Kept as an
	// ablation and benchmarking switch.
	DisablePrefilter bool
	// SharedProfiles optionally supplies an external co-location
	// profile cache, letting several scheduling domains — or successive
	// scheduler generations — pool what their screens learned. It must
	// have been built over the same topology the scheduler uses
	// (resource.Default()). nil keeps a private per-scheduler cache.
	SharedProfiles *profile.Cache
	// SharedCalibrations optionally supplies an external analytic p95
	// memo, which the scheduler's machines then share with its other
	// users. p95s are pure functions of their arguments, so sharing
	// them never perturbs a decision. QoS calibrations come from the
	// process memo whatever is set here. nil uses the profile cache's
	// memo.
	SharedCalibrations *server.Calibrations
	// Faults optionally injects observation faults into every
	// screening run — the warehouse's measurement plane is no more
	// reliable than its nodes. When the plan is enabled, screening
	// runs use the hardened controller (retry, outlier re-measurement,
	// guard pass); when it is empty the screening path is byte-for-
	// byte the unhardened one. Per-screen fault streams are derived
	// deterministically from Plan.Seed, the node id, and the node's
	// occupancy. NodeFailAt applies to each screening run's private
	// clock; whole-node loss at the cluster level is expressed with
	// FailNode instead.
	Faults faults.Plan
	// Trace, when non-nil, receives the cluster timeline: per-phase
	// PlacementPhase events plus, for every committed screen, the full
	// per-screen event stream (BO iterations, observation windows, QoS
	// violations) recorded into a private tracer during the screen and
	// merged here in commit order. Speculative screens discarded by the
	// index-ordered reduction never reach the trace, so the stream is
	// byte-identical for every ScreenWorkers setting.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, backs the Stats counters. When nil the
	// scheduler keeps a private registry, so Stats always works; pass a
	// shared registry to fold cluster counters into a wider dump.
	// Counters cover committed work only, like Stats always has.
	Metrics *telemetry.Registry
}

func (o Options) nodes() int {
	if o.Nodes > 0 {
		return o.Nodes
	}
	return 4
}

func (o Options) screenIterations() int {
	if o.ScreenIterations > 0 {
		return o.ScreenIterations
	}
	return 24
}

// Stats counts the work the placement pipeline did and, more to the
// point, the work it avoided. All counters cover committed work only —
// speculative screens discarded by the index-ordered reduction are
// never counted — so the numbers are identical for every ScreenWorkers
// setting.
//
// Stats is a point-in-time view assembled from the scheduler's
// telemetry counters (cluster_* in the registry); the struct survives
// as the stable API over the registry-backed storage.
type Stats struct {
	// Placements and Rejections partition the Place call stream.
	Placements int
	Rejections int
	// PrefilterRejects counts candidate nodes dismissed analytically,
	// each one a full BO screen that never ran.
	PrefilterRejects int
	// CacheHits / CacheMisses count exact profile-cache lookups per
	// candidate node; CacheNearHits counts screens that warm-started
	// from a near-miss donor's partitions.
	CacheHits     int
	CacheMisses   int
	CacheNearHits int
	// Screens counts BO screening runs; WarmScreens is the subset
	// that started from cached seed partitions.
	Screens     int
	WarmScreens int
	// BOIterations sums the evaluated configurations (bootstrap
	// included) across all committed screens — the Fig. 15a overhead
	// metric at cluster scale.
	BOIterations int
	// VerifyWindows counts single-observation validations of cached
	// partitions (the price of an exact cache hit).
	VerifyWindows int
}

// node tracks one machine's accepted jobs. Each placement trial resets
// a scheduler-owned machine to the node's seed and fills it with the
// node's jobs — the cleanest way to express "what if this job also ran
// here".
//
// mix, demand and solos summarize requests for the assessment pass and
// move with it at the sites that change it (join, leave, FailNode):
// mix while the profile cache is on, demand and solos while the
// pre-filter is on. class interns mix and demand (see classTable); a
// failed node leaves the table and holds class -1. Audit recomputes
// all four from requests.
//
// The fields the placement walk reads for each node it passes come
// first, so they share a cache line.
type node struct {
	id       int
	class    int32 // id of (mix, demand) in Scheduler.classes; -1 once failed
	failed   bool
	requests []Request
	seed     int64           // machine seed, fixed at construction
	solos    []*profile.Solo // requests' solo profiles, index for index (pre-filter on)
	scratch  []Request       // reused per-trial request slice (build)
	classState
	// last is the partition the latest admission found for the
	// node's current mix, nil when the mix changed since. It points at
	// the screen's result or the cache entry's, both immutable.
	last *core.Result
}

// allBG reports whether the node's jobs plus req are all background
// jobs, a mix with no QoS gate.
func (n *node) allBG(req Request) bool {
	if req.IsLC() {
		return false
	}
	for _, r := range n.requests {
		if r.IsLC() {
			return false
		}
	}
	return true
}

// Scheduler places jobs across a fixed pool of simulated nodes. All
// public methods are safe for concurrent use; calls serialize on an
// internal lock so a concurrent request stream observes the same
// placements as the equivalent sequential one.
type Scheduler struct {
	mu       sync.Mutex
	opts     Options
	topo     resource.Topology
	nodes    []*node
	cals     *server.Calibrations
	profiles *profile.Cache
	stats    statCounters
	trace    *telemetry.Tracer

	classes classTable

	// order holds the live nodes in placement order once ordered is
	// set (see placeOrder); join, leave and FailNode keep it so.
	order   []*node
	ordered bool

	// Per-call buffers, reused under mu: the live nodes in id order,
	// the candidates of the current pass, the arena their packed keys
	// live in, the per-class verdicts of the current pass (pass numbers
	// the passes), and the screening representatives.
	alive    []*node
	cands    []candidate
	keys     []byte
	verdicts []verdict // by class id
	pass     uint64
	reps     []*candidate

	// machines are the trial machines, each reset to a node's seed for
	// one trial (see trialMachines).
	machines []*server.Machine
}

// statCounters is the registry-backed storage behind Stats: one handle
// per ledger entry, resolved once at New. All increments happen under
// the scheduler lock (assess/verify/commit/admit run locked), so the
// counts are exact and committed-work-only by construction.
type statCounters struct {
	placements, rejections *telemetry.Counter
	prefilterRejects       *telemetry.Counter
	cacheHits, cacheMisses *telemetry.Counter
	cacheNearHits          *telemetry.Counter
	screens, warmScreens   *telemetry.Counter
	boIterations           *telemetry.Counter
	verifyWindows          *telemetry.Counter
}

func newStatCounters(reg *telemetry.Registry) statCounters {
	return statCounters{
		placements:       reg.Counter("cluster_placements_total"),
		rejections:       reg.Counter("cluster_rejections_total"),
		prefilterRejects: reg.Counter("cluster_prefilter_rejects_total"),
		cacheHits:        reg.Counter("cluster_cache_hits_total"),
		cacheMisses:      reg.Counter("cluster_cache_misses_total"),
		cacheNearHits:    reg.Counter("cluster_cache_near_hits_total"),
		screens:          reg.Counter("cluster_screens_total"),
		warmScreens:      reg.Counter("cluster_warm_screens_total"),
		boIterations:     reg.Counter("cluster_bo_iterations_total"),
		verifyWindows:    reg.Counter("cluster_verify_windows_total"),
	}
}

// New builds a scheduler over opts.Nodes empty nodes.
func New(opts Options) *Scheduler {
	topo := resource.Default()
	profiles := opts.SharedProfiles
	if profiles == nil {
		profiles = profile.NewCache(topo)
	}
	reg := opts.Metrics
	if reg == nil {
		// A private registry keeps the Stats view working when the
		// caller wired no telemetry.
		reg = telemetry.NewRegistry()
	}
	cals := opts.SharedCalibrations
	if cals == nil {
		cals = profiles.Calibrations()
	}
	s := &Scheduler{
		opts:     opts,
		topo:     topo,
		cals:     cals,
		profiles: profiles,
		stats:    newStatCounters(reg),
		trace:    opts.Trace,
	}
	// One backing array for all nodes: a fleet builds thousands, and
	// construction cost is part of every fleet's setup.
	backing := make([]node, opts.nodes())
	s.nodes = make([]*node, len(backing))
	for i := range backing {
		backing[i] = node{id: i, seed: opts.Seed + int64(i)*1009}
		s.nodes[i] = &backing[i]
	}
	s.classes = newClassTable(len(backing), s.appendState(nil, nil, &profile.Demand{}))
	return s
}

// Stats returns a snapshot of the pipeline counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Placements:       int(s.stats.placements.Value()),
		Rejections:       int(s.stats.rejections.Value()),
		PrefilterRejects: int(s.stats.prefilterRejects.Value()),
		CacheHits:        int(s.stats.cacheHits.Value()),
		CacheMisses:      int(s.stats.cacheMisses.Value()),
		CacheNearHits:    int(s.stats.cacheNearHits.Value()),
		Screens:          int(s.stats.screens.Value()),
		WarmScreens:      int(s.stats.warmScreens.Value()),
		BOIterations:     int(s.stats.boIterations.Value()),
		VerifyWindows:    int(s.stats.verifyWindows.Value()),
	}
}

// build places the node's jobs plus an optional extra request on m, a
// machine reset to the node's seed that shares the scheduler-wide p95
// memo; a workload's QoS calibration costs a trial one lookup in the
// process memo. The request slice is assembled in the node's scratch
// buffer — each node is built at most once per placement trial, so the
// buffer is never shared across goroutines.
func (s *Scheduler) build(m *server.Machine, n *node, extra *Request) error {
	reqs := n.requests
	if extra != nil {
		n.scratch = append(n.scratch[:0], n.requests...)
		n.scratch = append(n.scratch, *extra)
		reqs = n.scratch
	}
	for _, r := range reqs {
		var err error
		if r.IsLC() {
			_, err = m.AddLC(r.Workload, r.Load)
		} else {
			_, err = m.AddBG(r.Workload)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// phase records one PlacementPhase event. verify calls it once per
// window, so it stays small enough to inline: untraced, it is one nil
// check and builds no event.
func (s *Scheduler) phase(name string, node, n int, ok bool) {
	if s.trace != nil {
		s.emitPhase(name, node, n, ok)
	}
}

func (s *Scheduler) emitPhase(name string, node, n int, ok bool) {
	s.trace.Emit(telemetry.PlacementPhase(name, node, n, ok))
}

// faultPlan derives the per-screen fault stream from the cluster-level
// plan. The derivation depends only on the node id and its occupancy —
// never on wall time or goroutine order — so concurrent screening
// stays deterministic.
func (s *Scheduler) faultPlan(n *node) faults.Plan {
	p := s.opts.Faults
	if !p.Enabled() {
		return p
	}
	p.Seed += int64(n.id)*7919 + int64(len(n.requests))*104729
	return p
}

// screen runs a budget-bounded CLITE invocation to decide feasibility,
// warm-started from seeds when the profile cache knew a nearby mix, on
// m reset to the node's seed. The substrate flag
// marks runs that died on their observation plane (the window was
// lost, not the co-location disproved): the candidate is treated as
// infeasible for this placement but nothing is cached.
func (s *Scheduler) screen(m *server.Machine, n *node, extra Request, seeds []resource.Config) (res core.Result, ok, substrate bool, trace *telemetry.Tracer, err error) {
	m.Reset(n.seed)
	if err := s.build(m, n, &extra); err != nil {
		return core.Result{}, false, false, nil, err
	}
	// Screens may run speculatively and be discarded by the reduction,
	// so each records into a private tracer; commit merges the winner's
	// stream into the cluster trace in index order. The shared metrics
	// registry is deliberately NOT passed down — per-screen metric
	// updates from discarded speculative runs would make counter values
	// depend on the worker count.
	if s.trace != nil {
		trace = telemetry.NewTracer()
	}
	obs, err := faults.Wrap(m, s.faultPlan(n))
	if err != nil {
		return core.Result{}, false, false, nil, err
	}
	ctrl := core.New(obs, core.Options{
		BO: bo.Options{
			Seed:          s.opts.Seed + int64(n.id)*31 + int64(len(n.requests)),
			MaxIterations: s.opts.screenIterations(),
		},
		Resilience: core.Resilience{Enabled: s.opts.Faults.Enabled()},
		Trace:      trace,
	})
	res, err = ctrl.RunWarm(seeds)
	if err != nil {
		// A screening run that dies on its observation substrate proves
		// nothing about the co-location itself; treat the node as
		// infeasible for this request rather than failing the placement.
		if errors.Is(err, server.ErrObservationFailed) || errors.Is(err, server.ErrNodeFailed) {
			return core.Result{}, false, true, trace, nil
		}
		return core.Result{}, false, false, nil, err
	}
	// A BG-only node has no QoS gate; any partition is acceptable.
	ok = res.QoSMeetable || (n.allBG(extra) && len(res.Infeasible) == 0)
	return res, ok, false, trace, nil
}

// candKind is a candidate node's state after the sequential assessment
// pass.
type candKind int

const (
	// candScreen needs a BO screening run (possibly warm-started).
	candScreen candKind = iota
	// candCached has a feasible cache entry pending verification.
	candCached
	// candSkip is out: pre-filter reject or cached-infeasible mix.
	candSkip
)

// candidate pairs a node with everything the pipeline learned about
// hosting the request there.
type candidate struct {
	n     *node
	key   profile.Mix // node mix plus the arrival; aliases Scheduler.keys
	kind  candKind
	entry *profile.Entry    // candCached: the feasible hit
	seeds []resource.Config // candScreen: warm-start partitions, if any

	// resolved after screening / verification (rehome path).
	ok  bool
	res *core.Result
}

// arrival is a request resolved once for the whole assessment pass:
// its packed job for mix keys and its solo profile for the pre-filter.
type arrival struct {
	Request
	job  profile.JobKey
	solo *profile.Solo
	// soloErr is the solo lookup's failure, reported by the first
	// candidate whose residents are all solo-feasible — the point where
	// a per-job walk of the candidate mix would have reached it.
	soloErr error
}

// resolve prepares req for assessment: what the enabled layers need
// of it, looked up once rather than once per candidate node.
func (s *Scheduler) resolve(req Request) arrival {
	a := arrival{Request: req}
	if !s.opts.DisableProfileCache {
		a.job = profile.Pack(req.Workload, req.Load)
	}
	if !s.opts.DisablePrefilter {
		a.solo, a.soloErr = s.profiles.Solo(req.Workload, req.Load)
	}
	return a
}

// join adds an admitted request to the node, keeping its mix, demand,
// solos, class and place in the order in step.
func (s *Scheduler) join(n *node, a arrival) {
	n.requests = append(n.requests, a.Request)
	s.reorder(n, len(n.requests)-1)
	if !s.opts.DisableProfileCache {
		n.mix = n.mix.Insert(a.job)
	}
	if !s.opts.DisablePrefilter {
		n.demand.Add(a.solo)
		n.solos = append(n.solos, a.solo)
	}
	s.reclass(n)
}

// leave removes the node's i-th request, keeping its mix, demand, solos,
// class and place in the order in step. The solo profile is the one the
// request was admitted with, so a departure looks nothing up.
func (s *Scheduler) leave(n *node, i int) {
	r := n.requests[i]
	if !s.opts.DisablePrefilter {
		n.demand.Sub(n.solos[i])
		n.solos = append(n.solos[:i], n.solos[i+1:]...)
	}
	if !s.opts.DisableProfileCache {
		n.mix, _ = n.mix.Delete(profile.Pack(r.Workload, r.Load))
	}
	n.requests = append(n.requests[:i], n.requests[i+1:]...)
	s.reorder(n, len(n.requests)+1)
	s.reclass(n)
}

// classify is phase 0 of the pipeline: it judges every live node class
// once (see judge) and counts each verdict once per member. nodes must
// be the live nodes, in the order the caller tries them: a pass cut
// short by the arrival's solo-lookup error counts the nodes before the
// first one it reaches, and traced passes record each node's
// assessment in that order. It runs under the scheduler lock before
// any goroutine is spawned, so every Stats counter is deterministic.
func (s *Scheduler) classify(nodes []*node, a arrival) error {
	t := &s.classes
	if n := len(t.refs); len(s.verdicts) < n {
		s.verdicts = append(s.verdicts, make([]verdict, n-len(s.verdicts))...)
	}
	s.keys = s.keys[:0]
	s.pass++
	if a.soloErr != nil {
		// A node whose residents are all solo-feasible would look the
		// arrival up and report the failure; the pre-filter turns away
		// every node before the first such one, and the pass counts
		// those and ends.
		for i, n := range nodes {
			if n.demand.Feasible() {
				s.stats.prefilterRejects.Add(int64(i))
				for _, m := range nodes[:i] {
					s.phase("prefilter-reject", m.id, len(m.requests)+1, false)
				}
				return a.soloErr
			}
		}
	}
	var tl tally
	for id, refs := range t.refs {
		if refs > 0 {
			v := &s.verdicts[id]
			s.judge(v, &t.states[id], a)
			tl.add(v, refs)
		}
	}
	s.settle(&tl)
	s.emitAssessed(nodes)
	return nil
}

// emitAssessed records each node's assessment event, in node order.
func (s *Scheduler) emitAssessed(nodes []*node) {
	if s.trace == nil {
		return
	}
	for _, n := range nodes {
		v := &s.verdicts[n.class]
		jobs := len(n.requests) + 1
		switch {
		case v.rejected:
			s.emitPhase("prefilter-reject", n.id, jobs, false)
		case v.key == nil: // profile cache off
		case v.hit:
			s.emitPhase("cache-hit", n.id, jobs, v.entry != nil)
		case len(v.seeds) > 0:
			s.emitPhase("cache-near-hit", n.id, len(v.seeds), true)
		}
	}
}

// assess classifies the live nodes (see classify) and returns one
// candidate per node, in node order, in the scheduler's buffer until
// the next call. rehome weighs every candidate; Place reads the
// verdicts up to its cutoff instead (see shortlist).
func (s *Scheduler) assess(nodes []*node, a arrival) ([]candidate, error) {
	if err := s.classify(nodes, a); err != nil {
		return nil, err
	}
	s.cands = s.cands[:0]
	for _, n := range nodes {
		v := &s.verdicts[n.class]
		s.cands = append(s.cands, candidate{n: n, key: v.key, kind: v.kind, entry: v.entry, seeds: v.seeds})
	}
	return s.cands, nil
}

// verdict is one node class's assessment in one pass.
type verdict struct {
	pass     uint64 // the pass that judged it; older verdicts are stale
	kind     candKind
	rejected bool              // the pre-filter turned the class away
	key      profile.Mix       // class mix plus the arrival, when the cache was asked; aliases Scheduler.keys
	hit      bool              // the cache held the key
	entry    *profile.Entry    // a feasible hit
	seeds    []resource.Config // on a miss, a near donor's SeedsFor the candidate's job count
}

// judge fills v with the verdict for a class of state st: the
// pre-filter's, then the profile cache's. Two classes may share a key
// (same mix, different demand); each asks the cache. The scheduler
// stores to the cache only in commit, never during classify, so a
// second question gets the first one's answer; if another scheduler
// sharing the cache stores mid-pass, each class's answer is a state
// the cache did pass through.
func (s *Scheduler) judge(v *verdict, st *classState, a arrival) {
	*v = verdict{pass: s.pass, kind: candScreen}
	if !s.opts.DisablePrefilter && !st.demand.Admits(s.topo, a.solo) {
		v.kind, v.rejected = candSkip, true
		return
	}
	if s.opts.DisableProfileCache {
		return
	}
	start := len(s.keys)
	s.keys = profile.AppendInsert(s.keys, st.mix, a.job)
	v.key = s.keys[start:len(s.keys):len(s.keys)]
	if e, _ := s.profiles.Lookup(v.key); e != nil {
		v.hit, v.kind = true, candSkip
		if e.Feasible {
			v.entry, v.kind = e, candCached
		}
		return
	}
	if donor, _ := s.profiles.LookupNear(v.key, profile.NearTolerance); donor != nil {
		v.seeds = donor.SeedsFor(st.mix.Len() + 1)
	}
}

// tally is one pass's movement of the ledger's four per-candidate
// counters.
type tally struct {
	prefilterRejects, hits, misses, nearHits int64
}

// add counts the members of v's class: each moves the ledger's
// per-candidate counters.
func (t *tally) add(v *verdict, members int32) {
	m := int64(members)
	switch {
	case v.rejected:
		t.prefilterRejects += m
	case v.key == nil: // profile cache off
	case v.hit:
		t.hits += m
	default:
		t.misses += m
		if len(v.seeds) > 0 {
			t.nearHits += m
		}
	}
}

// settle adds a pass's tally to the ledger.
func (s *Scheduler) settle(t *tally) {
	s.stats.prefilterRejects.Add(t.prefilterRejects)
	s.stats.cacheHits.Add(t.hits)
	s.stats.cacheMisses.Add(t.misses)
	s.stats.cacheNearHits.Add(t.nearHits)
}

// verify spends one observation window checking that a cached
// partition still meets QoS on this node — the guard against load
// quantization blurring two mixes into one key, at one window instead
// of a full BO run. Any error demotes the candidate to a full screen.
// The window runs on trial machine 0, reset to the node's seed.
func (s *Scheduler) verify(n *node, req Request, e *profile.Entry) bool {
	m := s.trialMachines(1)[0]
	m.Reset(n.seed)
	if err := s.build(m, n, &req); err != nil {
		return false
	}
	s.stats.verifyWindows.Inc()
	observer, err := faults.Wrap(m, s.faultPlan(n))
	if err != nil {
		return false
	}
	obs, err := observer.Observe(e.Result.Best)
	ok := err == nil && obs.AllQoSMet
	s.phase("verify", n.id, 1, ok)
	return ok
}

// demote turns a failed cached candidate into a warm screen seeded
// from its own entry.
func (c *candidate) demote() {
	c.kind = candScreen
	c.seeds = c.entry.SeedsFor(len(c.n.requests) + 1)
}

// shortlist runs phase 1 of Place over the classified order and picks
// phase 2's screens: it walks the cached-feasible candidates in order
// and verifies until one holds up. That node is the cutoff — no candidate after it can win,
// because the verified hit costs zero further BO cycles and sits
// earlier in the order — and it comes back as hit. Failed
// verifications demote to warm screens and stay in the race. It
// returns the screening representatives before the cutoff (see
// pickReps). Only the representatives and the hit become candidates.
func (s *Scheduler) shortlist(order []*node, req Request) (reps []*candidate, hit *candidate) {
	s.cands = s.cands[:0]
	for _, n := range order {
		v := &s.verdicts[n.class]
		if v.kind == candSkip {
			continue
		}
		c := candidate{n: n, key: v.key, kind: v.kind, entry: v.entry, seeds: v.seeds}
		if c.kind == candCached {
			if n.allBG(req) || s.verify(n, req, c.entry) {
				s.cands = append(s.cands, c)
				hit = &s.cands[len(s.cands)-1]
				break
			}
			c.demote()
		}
		if !s.screened(c.key) {
			s.cands = append(s.cands, c)
		}
	}
	return s.pickReps(s.cands), hit
}

// screened reports whether a candidate already in the shortlist
// screens the mix key.
func (s *Scheduler) screened(key profile.Mix) bool {
	if key == nil {
		return false // profile cache off: every candidate screens
	}
	for i := range s.cands {
		if string(s.cands[i].key) == string(key) {
			return true
		}
	}
	return false
}

// pickReps selects the screening representatives among the candidates:
// the candScreen ones, deduplicated by mix key when the profile cache
// is on (feasibility is a property of the job mix, so one screen per
// distinct mix decides the whole group; the representative is the
// earliest candidate, which is also the one the first-feasible rule
// would pick).
func (s *Scheduler) pickReps(cands []candidate) []*candidate {
	s.reps = s.reps[:0]
	for i := range cands {
		c := &cands[i]
		if c.kind != candScreen {
			continue
		}
		if !s.opts.DisableProfileCache && repOf(s.reps, c.key) != nil {
			continue
		}
		s.reps = append(s.reps, c)
	}
	return s.reps
}

// repOf returns the representative screening the mix key, if any.
// Groups are few and keys short, so a scan beats building a set per
// call.
func repOf(reps []*candidate, key profile.Mix) *candidate {
	for _, r := range reps {
		if string(r.key) == string(key) {
			return r
		}
	}
	return nil
}

// trialMachines returns at least n trial machines, building the missing
// ones. Verify windows run on machine 0 and representative i screens on
// machine i: verification ends before screening starts, and concurrent
// screens each own their index, so no two trials share a machine at
// once.
func (s *Scheduler) trialMachines(n int) []*server.Machine {
	for len(s.machines) < n {
		s.machines = append(s.machines, server.NewShared(s.topo, server.DefaultSpec(), 0, s.cals))
	}
	return s.machines
}

// screenOut is one representative's screening outcome. done
// distinguishes "screened" from "never reached" on the sequential
// early-exit path.
type screenOut struct {
	res       core.Result
	ok        bool
	substrate bool
	trace     *telemetry.Tracer // the screen's private event stream (nil when tracing is off)
	err       error
	done      bool
}

// screenReps is phase 2: screen the representatives, sequentially with
// early exit when one worker is requested (and the caller admits on
// the first feasible result — the Place path), speculatively in
// parallel otherwise. Rehome passes earlyExit=false because it weighs
// every survivor, so all representatives screen whatever the worker
// count. Workers write only to their own index-addressed slot
// (DESIGN.md §8); nothing is committed here.
func (s *Scheduler) screenReps(reps []*candidate, req Request, earlyExit bool) []screenOut {
	results := make([]screenOut, len(reps))
	machines := s.trialMachines(len(reps))
	if earlyExit && par.Count(s.opts.ScreenWorkers) == 1 {
		for i, c := range reps {
			res, ok, substrate, trace, err := s.screen(machines[i], c.n, req, c.seeds)
			results[i] = screenOut{res: res, ok: ok, substrate: substrate, trace: trace, err: err, done: true}
			if err != nil || ok {
				break
			}
		}
		return results
	}
	par.ForEach(s.opts.ScreenWorkers, len(reps), func(i int) {
		c := reps[i]
		res, ok, substrate, trace, err := s.screen(machines[i], c.n, req, c.seeds)
		results[i] = screenOut{res: res, ok: ok, substrate: substrate, trace: trace, err: err, done: true}
	})
	return results
}

// commit folds one representative's outcome into the stats and the
// profile cache. Only results the index-ordered reduction actually
// reached are committed — the deterministic prefix — so cache contents
// and counters never depend on the worker count. Substrate failures
// prove nothing about the mix and are never cached.
func (s *Scheduler) commit(c *candidate, r *screenOut) {
	if r.err != nil {
		return
	}
	s.stats.screens.Inc()
	if len(c.seeds) > 0 {
		s.stats.warmScreens.Inc()
	}
	s.stats.boIterations.Add(int64(r.res.SamplesUsed))
	// The committed screen's private event stream joins the cluster
	// trace here, under the lock, in reduction order — the only point
	// where speculative work becomes observable.
	s.trace.Merge(r.trace, c.n.id)
	s.phase("screen", c.n.id, r.res.SamplesUsed, r.ok)
	if r.substrate || s.opts.DisableProfileCache {
		return
	}
	e := &profile.Entry{Key: string(c.key), Feasible: r.ok, Result: r.res}
	if r.ok {
		e.Seeds = profile.SeedsFromResult(r.res)
	}
	s.profiles.Store(e)
}

// admit records the placement on the node.
func (s *Scheduler) admit(n *node, a arrival, res *core.Result) Placement {
	s.join(n, a)
	n.last = res
	s.stats.placements.Inc()
	s.phase("admit", n.id, len(n.requests), true)
	return Placement{Node: n.id, Result: *res}
}

// Place finds a node for the request, preferring the least-loaded
// nodes, and returns the partition found there. Candidates flow
// through the pipeline: the analytical pre-filter and the profile
// cache dismiss or settle what they can; a feasible exact hit is
// validated with a single observation window; only the remaining
// unknowns pay a BO screen, concurrently, with an index-ordered
// reduction that admits the request onto the earliest feasible
// candidate — the same node the sequential first-feasible scan picks.
// If no node qualifies the request is rejected with ErrUnplaceable
// (schedule it in the next rack).
func (s *Scheduler) Place(req Request) (p Placement, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !(req.Load >= 0 && req.Load <= 1.5) {
		return Placement{}, fmt.Errorf("cluster: load %v out of range", req.Load)
	}
	span := s.trace.Begin("place", -1)
	defer func() { s.trace.End("place", -1, span, 1, err == nil) }()
	a := s.resolve(req)
	order := s.placeOrder()
	if err := s.classify(order, a); err != nil {
		return Placement{}, err
	}
	// Phases 1 and 2: verify cached hits up to the cutoff, then screen
	// the surviving unknowns before it.
	reps, hit := s.shortlist(order, req)
	results := s.screenReps(reps, req, true)

	// Phase 3: sequential index-order reduction. Commit exactly the
	// prefix the sequential scan would have screened, then admit onto
	// the earliest feasible candidate.
	for i, c := range reps {
		r := &results[i]
		if !r.done {
			break
		}
		s.commit(c, r)
		if r.err != nil {
			return Placement{}, r.err
		}
		if r.ok {
			return s.admit(c.n, a, &r.res), nil
		}
	}
	if hit != nil {
		return s.admit(hit.n, a, &hit.entry.Result), nil
	}
	s.stats.rejections.Inc()
	s.phase("reject", -1, len(order), false)
	return Placement{}, ErrUnplaceable
}

// ErrNotPlaced is returned by Remove when the node hosts no matching
// request to release.
var ErrNotPlaced = errors.New("cluster: no matching request placed on that node")

// Remove releases one placed request from a node — the departure path
// of a streaming workload: a job's service time ends and its resources
// return to the pool. The first request matching (Workload, Load) in
// placement order is removed; identical requests are interchangeable,
// so taking the earliest keeps removal deterministic. The node's last
// screened partition describes a mix that no longer exists, so it is
// dropped: the next placement trial rebuilds the machine from the
// surviving requests (and a shrunken mix can only be easier to
// satisfy, never harder).
func (s *Scheduler) Remove(id int, req Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("cluster: no node %d", id)
	}
	n := s.nodes[id]
	if n.failed {
		return fmt.Errorf("cluster: node %d has failed", id)
	}
	for i, r := range n.requests {
		if r.Workload != req.Workload || r.Load != req.Load {
			continue
		}
		s.leave(n, i)
		n.last = nil
		s.phase("release", id, len(n.requests), true)
		return nil
	}
	return fmt.Errorf("%w: %s on node %d", ErrNotPlaced, req.Workload, id)
}

// placeOrder returns the live nodes least-loaded first, ties in id
// order: the order Place tries them in. The first call sorts them; from
// then on join, leave and FailNode keep the order, so a call returns it
// as it stands. The slice is the scheduler's, valid until the next
// mutating call.
func (s *Scheduler) placeOrder() []*node {
	if !s.ordered {
		s.order = make([]*node, 0, len(s.nodes))
		for _, n := range s.nodes {
			if !n.failed {
				s.order = append(s.order, n)
			}
		}
		s.order, s.ordered = byOccupancy(s.order), true
	}
	return s.order
}

// byOccupancy stably sorts id-ordered nodes least-loaded first.
func byOccupancy(nodes []*node) []*node {
	slices.SortStableFunc(nodes, func(a, b *node) int { return len(a.requests) - len(b.requests) })
	return nodes
}

// precedes reports whether m sorts before a node of the given
// occupancy and id in placement order.
func precedes(m *node, jobs, id int) bool {
	return len(m.requests) < jobs || len(m.requests) == jobs && m.id < id
}

// orderIndex returns n's index in the order, where it sits as a node
// hosting was jobs.
func (s *Scheduler) orderIndex(n *node, was int) int {
	return sort.Search(len(s.order), func(k int) bool {
		m := s.order[k]
		return m == n || !precedes(m, was, n.id)
	})
}

// reorder moves n, which hosted was jobs, to its place in the order
// for its current occupancy, shifting the nodes it passes by one.
func (s *Scheduler) reorder(n *node, was int) {
	if !s.ordered {
		return
	}
	o, i, jobs := s.order, s.orderIndex(n, was), len(n.requests)
	if jobs > was {
		after := o[i+1:]
		k := sort.Search(len(after), func(k int) bool { return !precedes(after[k], jobs, n.id) })
		copy(o[i:], after[:k])
		o[i+k] = n
		return
	}
	k := sort.Search(i, func(k int) bool { return !precedes(o[k], jobs, n.id) })
	copy(o[k+1:i+1], o[k:i])
	o[k] = n
}

// live returns the non-failed nodes in id order, in the scheduler's
// reusable buffer (valid until the next call).
func (s *Scheduler) live() []*node {
	s.alive = s.alive[:0]
	for _, n := range s.nodes {
		if !n.failed {
			s.alive = append(s.alive, n)
		}
	}
	return s.alive
}

// Outcome reports the fate of one job during the reschedule that
// follows a node failure.
type Outcome struct {
	// Request is the drained job.
	Request Request
	// From is the failed node it was drained from.
	From int
	// Node is the surviving node that absorbed it (-1 when none could
	// within QoS).
	Node int
	// Err is nil on success and ErrUnplaceable (or a screening error)
	// when the job could not be rehomed.
	Err error
}

// FailNode marks a node as permanently lost — the warehouse-scale
// fault the single-node controller cannot absorb — drains its
// placements, and reschedules them across the survivors. LC jobs are
// rehomed first so they get first pick of the remaining headroom;
// relative order is preserved within each class, keeping the
// reschedule deterministic for a given seed. Each drained job gets an
// Outcome whether or not it found a new home; jobs that fit nowhere
// are reported with ErrUnplaceable rather than aborting the rest of
// the reschedule (the paper's Sec. 4 ejection path: schedule them in
// the next rack).
func (s *Scheduler) FailNode(id int) ([]Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return nil, fmt.Errorf("cluster: no node %d", id)
	}
	n := s.nodes[id]
	if n.failed {
		return nil, fmt.Errorf("cluster: node %d already failed", id)
	}
	if s.ordered {
		i := s.orderIndex(n, len(n.requests))
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
	n.failed = true
	drained := n.requests
	n.requests = nil
	n.solos = n.solos[:0]
	n.mix = n.mix[:0]
	n.demand.Reset()
	s.classes.release(n.class)
	n.class = -1
	n.last = nil
	s.phase("fail-node", id, len(drained), false)

	order := make([]Request, 0, len(drained))
	for _, r := range drained {
		if r.IsLC() {
			order = append(order, r)
		}
	}
	for _, r := range drained {
		if !r.IsLC() {
			order = append(order, r)
		}
	}
	outcomes := make([]Outcome, 0, len(order))
	for _, r := range order {
		p, err := s.rehome(r)
		if err != nil {
			outcomes = append(outcomes, Outcome{Request: r, From: id, Node: -1, Err: err})
			continue
		}
		outcomes = append(outcomes, Outcome{Request: r, From: id, Node: p.Node})
	}
	return outcomes, nil
}

// rehome finds a new node for one drained request. Unlike the
// admission path, which admits onto the earliest feasible node, a
// reschedule weighs every survivor — each drained LC job is unserved
// until it lands, so all candidates are assessed and the unknowns
// screened concurrently — and the selection rule (least-loaded
// feasible node, ties to the lowest id) is a pure function of the
// index-ordered results, so the outcome does not depend on goroutine
// interleaving. Because every representative is screened, all results
// are committed to the profile cache.
func (s *Scheduler) rehome(req Request) (Placement, error) {
	live := s.live()
	if len(live) == 0 {
		return Placement{}, ErrUnplaceable
	}
	a := s.resolve(req)
	cands, err := s.assess(live, a)
	if err != nil {
		return Placement{}, err
	}
	for i := range cands {
		c := &cands[i]
		if c.kind != candCached {
			continue
		}
		if c.n.allBG(req) || s.verify(c.n, req, c.entry) {
			c.ok, c.res = true, &c.entry.Result
			continue
		}
		c.demote()
	}
	reps := s.pickReps(cands)
	results := s.screenReps(reps, req, false)
	for i, c := range reps {
		r := &results[i]
		s.commit(c, r)
		if r.err != nil {
			return Placement{}, r.err
		}
		c.ok, c.res = r.ok, &r.res
	}
	// Non-representative members of a deduplicated mix group inherit
	// their representative's verdict.
	if !s.opts.DisableProfileCache {
		for i := range cands {
			c := &cands[i]
			if c.kind != candScreen || c.ok {
				continue
			}
			if rep := repOf(reps, c.key); rep != nil {
				c.ok, c.res = rep.ok, rep.res
			}
		}
	}
	var pick *candidate
	for i := range cands {
		c := &cands[i]
		if c.ok && (pick == nil || len(c.n.requests) < len(pick.n.requests)) {
			pick = c
		}
	}
	if pick == nil {
		return Placement{}, ErrUnplaceable
	}
	n := pick.n
	s.join(n, a)
	n.last = pick.res
	s.phase("rehome", n.id, len(n.requests), true)
	return Placement{Node: n.id, Result: *pick.res}, nil
}

// Audit recomputes every node's packed mix, summed solo minima and
// solo profiles from its request list and reports the first node whose
// incrementally maintained state disagrees, or whose class does not
// hold that state (a failed node holds none). It also checks the class
// table itself — every class's reference count is its live membership,
// and the live ids are exactly the counted ones — and, once built, the
// placement order against a fresh sort. The placement path
// never calls it; it is the from-scratch reference tests check the
// incremental updates against after every mutating call.
func (s *Scheduler) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.classes
	members := make([]int32, len(t.refs))
	first := make([]*node, len(t.refs))
	for _, n := range s.nodes {
		var mix profile.Mix
		var demand profile.Demand
		var solos []*profile.Solo
		for _, r := range n.requests {
			if !s.opts.DisableProfileCache {
				mix = mix.Insert(profile.Pack(r.Workload, r.Load))
			}
			if !s.opts.DisablePrefilter {
				solo, err := s.profiles.Solo(r.Workload, r.Load)
				if err != nil {
					return err
				}
				demand.Add(solo)
				solos = append(solos, solo)
			}
		}
		if string(mix) != string(n.mix) {
			return fmt.Errorf("cluster: node %d mix %x, recomputed %x", n.id, n.mix, mix)
		}
		if !slices.Equal(solos, n.solos) {
			return fmt.Errorf("cluster: node %d holds %d solo profiles, recomputed %d", n.id, len(n.solos), len(solos))
		}
		if demand.Feasible() != n.demand.Feasible() {
			return fmt.Errorf("cluster: node %d solo-feasible %t, recomputed %t", n.id, n.demand.Feasible(), demand.Feasible())
		}
		for r := range s.topo {
			if demand.Need(r) != n.demand.Need(r) {
				return fmt.Errorf("cluster: node %d resource %d demand %d, recomputed %d", n.id, r, n.demand.Need(r), demand.Need(r))
			}
		}
		if n.failed {
			if len(n.requests) > 0 || n.class != -1 {
				return fmt.Errorf("cluster: failed node %d hosts %d jobs in class %d", n.id, len(n.requests), n.class)
			}
			continue
		}
		key := s.appendState(nil, mix, &demand)
		if n.class < 0 || int(n.class) >= len(t.keys) || t.refs[n.class] == 0 || !bytes.Equal(t.keys[n.class], key) {
			return fmt.Errorf("cluster: node %d in class %d, which does not hold its state %x", n.id, n.class, key)
		}
		// Independently of the key encoding: a class's members share
		// their state.
		if m := first[n.class]; m == nil {
			first[n.class] = n
		} else if !sameState(&m.classState, &n.classState, s.topo) {
			return fmt.Errorf("cluster: nodes %d and %d share class %d with different states", m.id, n.id, n.class)
		}
		if !sameState(&t.states[n.class], &n.classState, s.topo) {
			return fmt.Errorf("cluster: node %d's class %d keeps another state", n.id, n.class)
		}
		members[n.class]++
	}
	if len(t.refs) > len(s.nodes) {
		return fmt.Errorf("cluster: class table has %d slots for %d nodes", len(t.refs), len(s.nodes))
	}
	live := 0
	for id, refs := range t.refs {
		if refs != members[id] {
			return fmt.Errorf("cluster: class %d counts %d nodes, holds %d", id, refs, members[id])
		}
		if refs > 0 {
			live++
			if got := t.index[t.find(t.keys[id])]; got != int32(id)+1 {
				return fmt.Errorf("cluster: class %d's state %x interns to %d", id, t.keys[id], got-1)
			}
		}
	}
	indexed := 0
	for _, e := range t.index {
		if e != 0 {
			indexed++
		}
	}
	if indexed != live || live+len(t.free) != len(t.refs) {
		return fmt.Errorf("cluster: class index holds %d states, %d classes are live, %d of %d ids free",
			indexed, live, len(t.free), len(t.refs))
	}
	if s.ordered && !slices.Equal(s.order, byOccupancy(slices.Clone(s.live()))) {
		return errors.New("cluster: the placement order is not the live nodes by occupancy")
	}
	return nil
}

// NodeInfo is a snapshot of one node's state.
type NodeInfo struct {
	ID     int
	Jobs   []string
	QoSMet bool
	// Failed marks a node lost to FailNode; it hosts nothing and takes
	// no further placements.
	Failed bool
	// BGPerf is the mean isolation-normalized BG throughput under the
	// node's current partition (0 when the node hosts no BG job).
	BGPerf float64
}

// Snapshot reports every node's jobs and health.
func (s *Scheduler) Snapshot() []NodeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeInfo, 0, len(s.nodes))
	for _, n := range s.nodes {
		info := NodeInfo{ID: n.id, QoSMet: n.last != nil, Failed: n.failed}
		for _, r := range n.requests {
			label := r.Workload
			if r.IsLC() {
				label = fmt.Sprintf("%s@%.0f%%", r.Workload, r.Load*100)
			}
			info.Jobs = append(info.Jobs, label)
		}
		if n.last != nil && n.last.BestObs.NormPerf != nil {
			var sum float64
			cnt := 0
			for i, r := range n.requests {
				if !r.IsLC() && i < len(n.last.BestObs.NormPerf) {
					sum += n.last.BestObs.NormPerf[i]
					cnt++
				}
			}
			if cnt > 0 {
				info.BGPerf = sum / float64(cnt)
			}
		}
		out = append(out, info)
	}
	return out
}

// Jobs returns the total number of placed jobs.
func (s *Scheduler) Jobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, n := range s.nodes {
		total += len(n.requests)
	}
	return total
}
