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
//   - an analytical admission pre-filter (profile.Cache.Admissible)
//     rejects candidate nodes whose job mix cannot fit even under a
//     per-job optimistic bound, with zero BO iterations;
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
	"errors"
	"fmt"
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
	// SharedCalibrations optionally supplies an external QoS
	// calibration store, so a fleet of schedulers pays each workload's
	// calibration sweep once rather than once per scheduler.
	// Calibrations are pure per-workload functions of the topology, so
	// sharing them never perturbs a decision. nil keeps a private
	// per-scheduler store.
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

// node tracks one machine's accepted jobs. Machines are rebuilt per
// placement trial — simulated machines are cheap, and a fresh build is
// the cleanest way to express "what if this job also ran here".
type node struct {
	id       int
	seed     int64 // machine seed, fixed at construction
	requests []Request
	scratch  []Request // reused per-trial request slice (build)
	last     core.Result
	lastOK   bool
	failed   bool
}

// Scheduler places jobs across a fixed pool of simulated nodes. All
// public methods are safe for concurrent use; calls serialize on an
// internal lock so a concurrent request stream observes the same
// placements as the equivalent sequential one.
type Scheduler struct {
	mu       sync.Mutex
	opts     Options
	topo     resource.Topology
	spec     server.Spec
	nodes    []*node
	cals     *server.Calibrations
	profiles *profile.Cache
	stats    statCounters
	trace    *telemetry.Tracer
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
		cals = server.NewCalibrations()
	}
	s := &Scheduler{
		opts:     opts,
		topo:     topo,
		spec:     server.DefaultSpec(),
		cals:     cals,
		profiles: profiles,
		stats:    newStatCounters(reg),
		trace:    opts.Trace,
	}
	for i := 0; i < opts.nodes(); i++ {
		s.nodes = append(s.nodes, &node{id: i, seed: opts.Seed + int64(i)*1009})
	}
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

// CacheLen returns the number of distinct job mixes the profile cache
// has memoized.
func (s *Scheduler) CacheLen() int { return s.profiles.Len() }

// build constructs the machine hosting the node's jobs plus an
// optional extra request. The request slice is assembled in the node's
// scratch buffer — each node is built at most once per placement
// trial, so the buffer is never shared across goroutines — and the
// machine shares the scheduler-wide calibration cache, so each
// workload pays its QoS calibration sweep once per cluster rather than
// once per trial.
func (s *Scheduler) build(n *node, extra *Request) (*server.Machine, error) {
	m := server.NewShared(s.topo, s.spec, n.seed, s.cals)
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
			return nil, err
		}
	}
	return m, nil
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
// warm-started from seeds when the profile cache knew a nearby mix.
// The substrate flag marks runs that died on their observation plane
// (the window was lost, not the co-location disproved): the candidate
// is treated as infeasible for this placement but nothing is cached.
func (s *Scheduler) screen(n *node, extra Request, seeds []resource.Config) (res core.Result, ok, substrate bool, trace *telemetry.Tracer, err error) {
	m, err := s.build(n, &extra)
	if err != nil {
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
	allBG := !extra.IsLC()
	for _, r := range n.requests {
		if r.IsLC() {
			allBG = false
		}
	}
	ok = res.QoSMeetable || (allBG && len(res.Infeasible) == 0)
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
	jobs  []profile.Job
	key   string
	kind  candKind
	entry *profile.Entry    // candCached: the feasible hit
	seeds []resource.Config // candScreen: warm-start partitions, if any

	// resolved after screening / verification (rehome path).
	ok  bool
	res core.Result
}

func mixOf(n *node, req Request) []profile.Job {
	jobs := make([]profile.Job, 0, len(n.requests)+1)
	for _, r := range n.requests {
		jobs = append(jobs, profile.Job{Workload: r.Workload, Load: r.Load})
	}
	return append(jobs, profile.Job{Workload: req.Workload, Load: req.Load})
}

func allBG(jobs []profile.Job) bool {
	for _, j := range jobs {
		if j.IsLC() {
			return false
		}
	}
	return true
}

// assess is phase 0 of the pipeline: sequentially classify every
// candidate node via the pre-filter and the profile cache. It runs
// under the scheduler lock before any goroutine is spawned, so lookup
// order — and with it every Stats counter — is deterministic.
func (s *Scheduler) assess(nodes []*node, req Request) ([]*candidate, error) {
	cands := make([]*candidate, 0, len(nodes))
	for _, n := range nodes {
		c := &candidate{n: n, jobs: mixOf(n, req)}
		cands = append(cands, c)
		if !s.opts.DisablePrefilter {
			ok, err := s.profiles.Admissible(c.jobs)
			if err != nil {
				return nil, err
			}
			if !ok {
				c.kind = candSkip
				s.stats.prefilterRejects.Inc()
				s.trace.Emit(telemetry.PlacementPhase("prefilter-reject", n.id, len(c.jobs), false))
				continue
			}
		}
		if s.opts.DisableProfileCache {
			c.kind = candScreen
			continue
		}
		c.key = profile.Key(c.jobs)
		if e, ok := s.profiles.Lookup(c.key); ok {
			s.stats.cacheHits.Inc()
			s.trace.Emit(telemetry.PlacementPhase("cache-hit", n.id, len(c.jobs), e.Feasible))
			if e.Feasible {
				c.kind = candCached
				c.entry = e
			} else {
				c.kind = candSkip
			}
			continue
		}
		s.stats.cacheMisses.Inc()
		c.kind = candScreen
		if donor, ok := s.profiles.LookupNear(c.jobs, profile.NearTolerance); ok {
			if seeds := donor.SeedsFor(len(c.jobs)); len(seeds) > 0 {
				c.seeds = seeds
				s.stats.cacheNearHits.Inc()
				s.trace.Emit(telemetry.PlacementPhase("cache-near-hit", n.id, len(seeds), true))
			}
		}
	}
	return cands, nil
}

// verify spends one observation window checking that a cached
// partition still meets QoS on this node — the guard against load
// quantization blurring two mixes into one key, at one window instead
// of a full BO run. Any error demotes the candidate to a full screen.
func (s *Scheduler) verify(n *node, req Request, e *profile.Entry) bool {
	m, err := s.build(n, &req)
	if err != nil {
		return false
	}
	s.stats.verifyWindows.Inc()
	observer, err := faults.Wrap(m, s.faultPlan(n))
	if err != nil {
		return false
	}
	obs, err := observer.Observe(e.Result.Best)
	ok := err == nil && obs.AllQoSMet
	s.trace.Emit(telemetry.PlacementPhase("verify", n.id, 1, ok))
	return ok
}

// demote turns a failed cached candidate into a warm screen seeded
// from its own entry.
func (c *candidate) demote() {
	c.kind = candScreen
	c.seeds = c.entry.SeedsFor(len(c.jobs))
}

// reps selects the screening representatives among the candidates:
// the candScreen ones, deduplicated by mix key when the profile cache
// is on (feasibility is a property of the job mix, so one screen per
// distinct mix decides the whole group; the representative is the
// earliest candidate, which is also the one the first-feasible rule
// would pick).
func (s *Scheduler) reps(cands []*candidate) []*candidate {
	var out []*candidate
	seen := make(map[string]bool, len(cands))
	for _, c := range cands {
		if c.kind != candScreen {
			continue
		}
		if !s.opts.DisableProfileCache && c.key != "" {
			if seen[c.key] {
				continue
			}
			seen[c.key] = true
		}
		out = append(out, c)
	}
	return out
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
	if earlyExit && par.Count(s.opts.ScreenWorkers) == 1 {
		for i, c := range reps {
			res, ok, substrate, trace, err := s.screen(c.n, req, c.seeds)
			results[i] = screenOut{res: res, ok: ok, substrate: substrate, trace: trace, err: err, done: true}
			if err != nil || ok {
				break
			}
		}
		return results
	}
	par.ForEach(s.opts.ScreenWorkers, len(reps), func(i int) {
		c := reps[i]
		res, ok, substrate, trace, err := s.screen(c.n, req, c.seeds)
		results[i] = screenOut{res: res, ok: ok, substrate: substrate, trace: trace, err: err, done: true}
	})
	return results
}

// commit folds one representative's outcome into the stats and the
// profile cache. Only results the index-ordered reduction actually
// reached are committed — the deterministic prefix — so cache contents
// and counters never depend on the worker count. Substrate failures
// prove nothing about the mix and are never cached.
func (s *Scheduler) commit(c *candidate, r screenOut) {
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
	s.trace.Emit(telemetry.PlacementPhase("screen", c.n.id, r.res.SamplesUsed, r.ok))
	if r.substrate || s.opts.DisableProfileCache || c.key == "" {
		return
	}
	e := &profile.Entry{Key: c.key, Jobs: c.jobs, Feasible: r.ok, Result: r.res}
	if r.ok {
		e.Seeds = profile.SeedsFromResult(r.res)
	}
	s.profiles.Store(e)
}

// admit records the placement on the node.
func (s *Scheduler) admit(n *node, req Request, res core.Result) Placement {
	n.requests = append(n.requests, req)
	n.last = res
	n.lastOK = true
	s.stats.placements.Inc()
	s.trace.Emit(telemetry.PlacementPhase("admit", n.id, len(n.requests), true))
	return Placement{Node: n.id, Result: res}
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
	order := s.live()
	sort.SliceStable(order, func(i, j int) bool {
		return len(order[i].requests) < len(order[j].requests)
	})
	cands, err := s.assess(order, req)
	if err != nil {
		return Placement{}, err
	}

	// Phase 1: walk the cached-feasible candidates in placement order
	// and verify until one holds up. That index is the cutoff — no
	// candidate after it can win, because the verified hit costs zero
	// further BO cycles and sits earlier in the order. Failed
	// verifications demote to warm screens and stay in the race.
	cutoff := len(cands)
	var verified *candidate
	for i, c := range cands {
		if c.kind != candCached {
			continue
		}
		if allBG(c.jobs) || s.verify(c.n, req, c.entry) {
			cutoff, verified = i, c
			break
		}
		c.demote()
	}

	// Phase 2: screen the surviving unknowns before the cutoff.
	reps := s.reps(cands[:cutoff])
	results := s.screenReps(reps, req, true)

	// Phase 3: sequential index-order reduction. Commit exactly the
	// prefix the sequential scan would have screened, then admit onto
	// the earliest feasible candidate.
	for i, c := range reps {
		r := results[i]
		if !r.done {
			break
		}
		s.commit(c, r)
		if r.err != nil {
			return Placement{}, r.err
		}
		if r.ok {
			return s.admit(c.n, req, r.res), nil
		}
	}
	if verified != nil {
		return s.admit(verified.n, req, verified.entry.Result), nil
	}
	s.stats.rejections.Inc()
	s.trace.Emit(telemetry.PlacementPhase("reject", -1, len(cands), false))
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
		n.requests = append(n.requests[:i], n.requests[i+1:]...)
		n.last = core.Result{}
		n.lastOK = false
		s.trace.Emit(telemetry.PlacementPhase("release", id, len(n.requests), true))
		return nil
	}
	return fmt.Errorf("%w: %s on node %d", ErrNotPlaced, req.Workload, id)
}

// live returns the non-failed nodes in id order.
func (s *Scheduler) live() []*node {
	out := make([]*node, 0, len(s.nodes))
	for _, n := range s.nodes {
		if !n.failed {
			out = append(out, n)
		}
	}
	return out
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
	n.failed = true
	drained := n.requests
	n.requests = nil
	n.last = core.Result{}
	n.lastOK = false
	s.trace.Emit(telemetry.PlacementPhase("fail-node", id, len(drained), false))

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
	cands, err := s.assess(live, req)
	if err != nil {
		return Placement{}, err
	}
	for _, c := range cands {
		if c.kind != candCached {
			continue
		}
		if allBG(c.jobs) || s.verify(c.n, req, c.entry) {
			c.ok, c.res = true, c.entry.Result
			continue
		}
		c.demote()
	}
	reps := s.reps(cands)
	results := s.screenReps(reps, req, false)
	byKey := make(map[string]screenOut, len(reps))
	for i, c := range reps {
		r := results[i]
		s.commit(c, r)
		if r.err != nil {
			return Placement{}, r.err
		}
		c.ok, c.res = r.ok, r.res
		if c.key != "" {
			byKey[c.key] = r
		}
	}
	// Non-representative members of a deduplicated mix group inherit
	// their representative's verdict.
	for _, c := range cands {
		if c.kind != candScreen || c.ok || c.key == "" {
			continue
		}
		if r, found := byKey[c.key]; found {
			c.ok, c.res = r.ok, r.res
		}
	}
	pick := -1
	for i, c := range cands {
		if !c.ok {
			continue
		}
		if pick < 0 || len(live[i].requests) < len(live[pick].requests) {
			pick = i
		}
	}
	if pick < 0 {
		return Placement{}, ErrUnplaceable
	}
	c := cands[pick]
	n := c.n
	n.requests = append(n.requests, req)
	n.last = c.res
	n.lastOK = true
	s.trace.Emit(telemetry.PlacementPhase("rehome", n.id, len(n.requests), true))
	return Placement{Node: n.id, Result: c.res}, nil
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
		info := NodeInfo{ID: n.id, QoSMet: n.lastOK, Failed: n.failed}
		for _, r := range n.requests {
			label := r.Workload
			if r.IsLC() {
				label = fmt.Sprintf("%s@%.0f%%", r.Workload, r.Load*100)
			}
			info.Jobs = append(info.Jobs, label)
		}
		if n.lastOK && n.last.BestObs.NormPerf != nil {
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
