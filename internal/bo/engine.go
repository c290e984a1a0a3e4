package bo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"clite/internal/gp"
	"clite/internal/optimize"
	"clite/internal/resource"
	"clite/internal/stats"
	"clite/internal/telemetry"
)

// Evaluation is what evaluating one configuration on the live system
// returns to the engine: the scalar objective score (Eq. 3), plus the
// per-job normalized performance the dropout-copy heuristic needs to
// decide which job is "performing the best so far".
type Evaluation struct {
	Score   float64
	JobPerf []float64
}

// EvalFunc runs the system under a configuration for one observation
// window and scores it.
type EvalFunc func(resource.Config) (Evaluation, error)

// Sample is one evaluated configuration.
type Sample struct {
	Config resource.Config
	Eval   Evaluation
}

// Options tunes the engine. The zero value reproduces the paper's
// configuration; the Disable*/Random* switches exist for the ablation
// benchmarks.
type Options struct {
	// Acquisition defaults to EI with ζ = 0.01 (Sec. 4).
	Acquisition Acquisition
	// KernelFamily defaults to "matern52" (Sec. 4); "rbf" for ablation.
	KernelFamily string
	// MaxIterations bounds post-bootstrap samples (default 80).
	MaxIterations int
	// TerminationEI is the relative expected-improvement drop
	// threshold (default 0.01 — "can be as low as 1%"). It is scaled
	// down with the number of co-located jobs, since "the curve of
	// drop in the expected improvement is slower as the number of
	// co-located jobs increase" (Sec. 4).
	TerminationEI float64
	// TerminationPatience is how many consecutive below-threshold
	// iterations end the search (default 2).
	TerminationPatience int
	// MinIterations is how many acquisition steps must run before the
	// termination rules may fire (default 2·Njobs+4): with only the
	// bootstrap samples conditioned, the surrogate's expected
	// improvement is not yet a trustworthy convergence signal.
	MinIterations int
	// StagnationWindow terminates the run when the incumbent has not
	// improved by at least 1% of the observed score range for this
	// many consecutive iterations (default 24). Measurement noise puts
	// a floor under the surrogate's expected improvement, so the
	// EI-drop rule alone can fail to fire on a noisy system; the
	// stagnation guard bounds the overhead in that regime. Set
	// negative to disable (ablation).
	StagnationWindow int
	// DisableDropout turns dropout-copy off (ablation).
	DisableDropout bool
	// RandomDropout freezes a uniformly random job instead of the
	// best-performing one (the generic dropout-copy of Li et al.,
	// kept as an ablation of CLITE's refinement).
	RandomDropout bool
	// RandomBootstrap replaces the engineered bootstrap set (equal
	// split + per-job extrema) with random samples (ablation).
	RandomBootstrap bool
	// RandomBootstrapExtra adds this many random configurations on top
	// of the engineered bootstrap (default 3; negative disables). The
	// engineered samples bracket the space's extremes but all sit on
	// its boundary; a few uniform draws give the surrogate interior
	// coverage and often land a balanced feasible starting basin.
	RandomBootstrapExtra int
	// ExploitEvery interleaves a pure posterior-mean maximization
	// every N-th iteration (default 3; negative disables).
	ExploitEvery int
	// ExtraBootstrap configurations are evaluated alongside the
	// engineered bootstrap set. Re-invocations after a load change pass
	// the previously converged partition here, so the search starts
	// from the old operating point instead of from scratch (Fig. 16).
	ExtraBootstrap []resource.Config
	// SeedConfigs replaces the whole bootstrap set (engineered or
	// random) with the given configurations: the warm-start path for
	// searches that already know where the promising region is — e.g.
	// a cluster scheduler re-screening a job mix that near-matches a
	// cached co-location profile. The engine pays one evaluation per
	// distinct seed instead of the Njobs+4 engineered bootstrap
	// samples. Because the engineered extremum samples are skipped,
	// the cannot-meet-QoS-under-maximum-allocation detection does not
	// run; callers should seed only from previously feasible runs.
	// ExtraBootstrap is still appended on top.
	SeedConfigs []resource.Config
	// Workers bounds the worker pools inside the decision loop —
	// surrogate conditioning across the hyperparameter grid and the
	// acquisition multi-starts. 0 means NumCPU, 1 forces the
	// sequential paths; results are byte-identical either way
	// (DESIGN.md §8).
	Workers int
	// Trace, when non-nil, receives the per-iteration timeline
	// (BOIteration and Termination events). Events carry only
	// iteration numbers and scores — never wall-clock readings — so a
	// traced run stays byte-identical to an untraced one.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, receives counters and histograms
	// (iterations, fit sizes, acquisition wall time). Unlike the
	// trace, metric values may include wall-clock durations; they are
	// a profile, not part of the deterministic result.
	Metrics *telemetry.Registry
	// Seed drives all stochastic choices.
	Seed int64
}

func (o Options) acquisition() Acquisition {
	if o.Acquisition != nil {
		return o.Acquisition
	}
	return EI{Zeta: 0.01}
}

func (o Options) kernelFamily() string {
	if o.KernelFamily != "" {
		return o.KernelFamily
	}
	return "matern52"
}

func (o Options) maxIterations() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 80
}

func (o Options) terminationEI() float64 {
	if o.TerminationEI > 0 {
		return o.TerminationEI
	}
	return 0.01
}

func (o Options) terminationPatience() int {
	if o.TerminationPatience > 0 {
		return o.TerminationPatience
	}
	return 2
}

func (o Options) exploitEvery() int {
	if o.ExploitEvery != 0 {
		return o.ExploitEvery
	}
	return 3
}

func (o Options) stagnationWindow() int {
	if o.StagnationWindow != 0 {
		return o.StagnationWindow
	}
	return 24
}

func (o Options) minIterations(nJobs int) int {
	if o.MinIterations > 0 {
		return o.MinIterations
	}
	// The paper's EI curves drop more slowly with more co-located
	// jobs; scale the floor accordingly.
	return 2*nJobs + 4
}

// Result is the outcome of one BO run.
type Result struct {
	Best       Sample
	Samples    []Sample // in evaluation order, bootstrap included
	Iterations int      // post-bootstrap acquisition steps taken
	Converged  bool     // true if the EI-drop rule fired (vs. iteration cap)
	EITrace    []float64
}

// dropoutKeepBestProb is the probability that dropout-copy freezes the
// best-performing job rather than a random one — the "small
// probabilistic factor" the paper credits for CLITE's small residual
// run-to-run variability (Sec. 5.2, Fig. 11).
const dropoutKeepBestProb = 0.85

// Run executes Algorithm 1 over the feasible partition space.
func Run(topo resource.Topology, nJobs int, eval EvalFunc, opts Options) (Result, error) {
	r, err := NewRunner(topo, nJobs)
	if err != nil {
		return Result{}, err
	}
	return r.Run(eval, opts)
}

// Runner executes repeated BO runs over one (topology, job count),
// reusing every engine arena across runs: the sample and
// normalized-input arenas, the seen-set buckets, the surrogate pool's
// retained kernel matrices and Cholesky factors, the acquisition
// maximizer's start vectors, and all per-iteration scratch. A run
// through a warmed Runner allocates close to nothing beyond what the
// caller's EvalFunc does — the BOEngineIteration benchmark pins this.
//
// Aliasing contract: the returned Result (Samples, EITrace, Best)
// references the Runner's arenas and is valid only until the next Run
// call; callers that keep results across runs must copy them. A
// Runner serves one Run at a time. Results are identical to bo.Run —
// the one-shot form is simply a fresh Runner per call.
type Runner struct {
	e *engine
}

// NewRunner validates the space and returns an empty Runner.
func NewRunner(topo resource.Topology, nJobs int) (*Runner, error) {
	if nJobs < 1 {
		return nil, fmt.Errorf("bo: need at least one job, got %d", nJobs)
	}
	for _, spec := range topo {
		if spec.Units < nJobs {
			return nil, fmt.Errorf("bo: resource %s has %d units for %d jobs", spec.Kind, spec.Units, nJobs)
		}
	}
	return &Runner{e: newEngine(topo, nJobs)}, nil
}

// Run executes Algorithm 1 over the feasible partition space.
func (r *Runner) Run(eval EvalFunc, opts Options) (Result, error) {
	e := r.e
	topo, nJobs := e.topo, e.nJobs
	rng := stats.NewRNG(opts.Seed)
	acq := opts.acquisition()

	e.reset(opts)

	// Telemetry handles resolve to nil when disabled; every emit below
	// is a nil-guarded no-op in that case.
	trace := opts.Trace
	mIters := opts.Metrics.Counter("bo_iterations_total")
	mCollisions := opts.Metrics.Counter("bo_seen_collisions_total")
	mAcqTime := opts.Metrics.Histogram("bo_acq_seconds", telemetry.LatencyBuckets())
	mBest := opts.Metrics.Gauge("bo_best_score")

	// Bootstrap (Sec. 4): equal division plus each job's extremum —
	// Njobs+1 samples ("the number of initial samples is chosen to the
	// number of colocated jobs + 1"). The configs live in the engine's
	// boot arena; evaluate copies what it keeps.
	if len(opts.SeedConfigs) > 0 {
		for _, cfg := range opts.SeedConfigs {
			if err := cfg.Validate(topo); err != nil {
				return Result{}, fmt.Errorf("bo: seed config: %w", err)
			}
			e.bootSlot().CopyFrom(cfg)
		}
	} else if opts.RandomBootstrap {
		for i := 0; i < nJobs+1; i++ {
			resource.RandomInto(topo, nJobs, rng, e.bootSlot(), &e.cutsBuf)
		}
	} else {
		resource.EqualSplitInto(topo, nJobs, e.bootSlot())
		for j := 0; j < nJobs; j++ {
			resource.ExtremumInto(topo, nJobs, j, e.bootSlot())
		}
		extra := opts.RandomBootstrapExtra
		if extra == 0 {
			extra = 3
		}
		for i := 0; i < extra; i++ {
			resource.RandomInto(topo, nJobs, rng, e.bootSlot(), &e.cutsBuf)
		}
	}
	for _, cfg := range opts.ExtraBootstrap {
		if err := cfg.Validate(topo); err != nil {
			return Result{}, fmt.Errorf("bo: extra bootstrap: %w", err)
		}
		e.bootSlot().CopyFrom(cfg)
	}
	for i := 0; i < e.nBoot; i++ {
		cfg := e.bootCfgs[i]
		if e.seen.has(cfg) {
			continue
		}
		if err := e.evaluate(cfg, eval); err != nil {
			return Result{}, err
		}
	}

	threshold := opts.terminationEI() / float64(nJobs)
	patience := 0
	stagnant := 0
	prevBest := math.Inf(-1)
	result := Result{EITrace: e.eiTrace[:0]}
	reason := "iteration-cap"
	e.acq = acq
	for iter := 0; iter < opts.maxIterations(); iter++ {
		model, err := e.fit(opts.kernelFamily())
		if err != nil {
			return Result{}, err
		}
		// With noisy observations the raw best sample is biased high
		// (it is partly a lucky draw); the incumbent for both the
		// acquisition and the stagnation guard is therefore the best
		// posterior mean over the sampled points.
		_, bestMean := e.bestByPosterior(model)

		// Stagnation bookkeeping happens up front so that every kind of
		// sample — acquisition, exploitation, reshuffle probe — counts:
		// a probe that lifted the incumbent resets the counter through
		// the refitted posterior.
		scale := math.Max(e.best().Eval.Score-e.worst().Eval.Score, 0.01)
		if bestMean > prevBest+0.002*scale {
			prevBest = bestMean
			stagnant = 0
		} else {
			stagnant++
		}

		frozenJob := -1
		var frozenAlloc resource.Allocation
		// Dropout-copy needs at least three jobs: with two, the sum
		// constraint makes freezing one job pin the other completely.
		if !opts.DisableDropout && nJobs > 2 {
			frozenJob, frozenAlloc = e.chooseDropout(rng, opts.RandomDropout)
		}

		// The objectives are engine methods bound once at construction;
		// the per-iteration state they read is published here.
		e.curModel, e.curBestMean = model, bestMean

		// Once a QoS-meeting configuration exists, every third step is
		// a direct reshuffle probe: move units from the job doing best
		// to the job doing worst, across all resources at once ("CLITE
		// does not stop after meeting QoS targets, it reshuffles
		// resources to improve every job's performance", Sec. 5.2).
		// The GP cannot see across the QoS cliff until such a point is
		// sampled, so this structured exploration is what lets the
		// engine keep converting LC slack into BG throughput.
		probed := false
		if e.best().Eval.Score > 0.5 && iter%3 == 1 {
			if cand, ok := e.reshuffleProbe(rng); ok {
				e.xVec = cand.VectorInto(e.xVec)
				probeEI := e.scoreOne(e.eiBatchFn, e.xVec)
				result.EITrace = append(result.EITrace, probeEI)
				if err := e.evaluate(cand, eval); err != nil {
					return Result{}, err
				}
				result.Iterations++
				mIters.Inc()
				if trace != nil {
					trace.Emit(telemetry.BOIteration(iter, probeEI, e.best().Eval.Score, len(e.samples)))
				}
				probed = true
			}
		}
		if probed {
			// Probe samples do not inform the EI-drop rule (the rule is
			// about the acquisition surface, which the probe bypassed);
			// termination is evaluated on the next regular iteration.
			continue
		}
		// Every third step is pure exploitation — climb the posterior
		// mean itself. EI alone dithers near its noise floor once the
		// model is decent; interleaving mean-climbing steps converts
		// model knowledge into score steadily without giving up the
		// exploration the other two thirds provide.
		objective := e.eiBatchFn
		if ee := opts.exploitEvery(); ee > 0 && iter%ee == ee-1 {
			objective = e.meanBatchFn
		}
		starts := e.collectStarts(e.best())
		problem := optimize.Problem{
			Topo: topo, NJobs: nJobs,
			Objective:   objective,
			FrozenJob:   frozenJob,
			FrozenAlloc: frozenAlloc,
			Starts:      starts,
			RNG:         rng,
			Workers:     opts.Workers,
			Scratch:     &e.maxScratch,
		}
		// Wall-clock timing is metrics-only (a profile, never part of
		// the deterministic trace), so the clock read is skipped
		// entirely when no registry is attached.
		var acqStart time.Time
		if mAcqTime != nil {
			acqStart = time.Now() //lint:allow detrand metrics-only acq-latency histogram; a profile, never part of the deterministic trace
		}
		xStar := optimize.Maximize(problem)
		if mAcqTime != nil {
			mAcqTime.Observe(time.Since(acqStart).Seconds()) //lint:allow detrand metrics-only wall-clock duration feeding the histogram above
		}
		// The trace and the termination rule are always in EI units,
		// whichever objective picked the candidate.
		eiStar := e.scoreOne(e.eiBatchFn, xStar)
		result.EITrace = append(result.EITrace, eiStar)

		resource.RoundFeasibleInto(topo, nJobs, xStar, &e.roundCfg, &e.roundScratch)
		cfg := e.roundCfg
		if e.seen.has(cfg) {
			// Integer rounding collapsed onto an already-sampled
			// configuration; probe an unseen neighbour instead so the
			// window is not wasted re-measuring a known point.
			mCollisions.Inc()
			cfg = e.bestUnseenNeighbor(cfg, objective, rng)
		}
		if err := e.evaluate(cfg, eval); err != nil {
			return Result{}, err
		}
		result.Iterations++
		mIters.Inc()
		if trace != nil {
			trace.Emit(telemetry.BOIteration(iter, eiStar, e.best().Eval.Score, len(e.samples)))
		}

		// Termination: the expected-improvement drop rule. EI is in
		// score units, so the threshold is scaled by the observed
		// score range — before any configuration meets QoS the whole
		// surface lives in a thin slice near zero and an absolute
		// threshold would fire instantly.
		// Neither rule may fire while no sampled configuration has met
		// every QoS target (score ≤ 0.5 in the Eq. 3 convention):
		// while the engine is still hunting for feasibility it gets
		// the whole iteration budget — giving up early on barely-
		// co-locatable mixes is exactly the PARTIES failure mode
		// CLITE exists to avoid (Fig. 9b).
		feasibilityFound := e.best().Eval.Score > 0.5
		// The EI-drop rule additionally requires a few flat iterations:
		// a low acquisition maximum right after a reshuffle probe
		// improved the incumbent is the model catching up, not
		// convergence.
		if feasibilityFound && result.Iterations >= opts.minIterations(nJobs) &&
			eiStar < threshold*scale && stagnant >= 4 {
			patience++
			if patience >= opts.terminationPatience() {
				result.Converged = true
				reason = "ei-drop"
				break
			}
		} else {
			patience = 0
		}
		// Stagnation guard: measurement noise keeps EI bounded away
		// from zero, so also stop once the incumbent has been flat
		// (the counter is maintained at the top of the loop).
		if w := opts.stagnationWindow(); w > 0 && feasibilityFound &&
			result.Iterations >= opts.minIterations(nJobs) && stagnant >= w {
			result.Converged = true
			reason = "stagnation"
			break
		}
	}
	result.Samples = e.samples
	// Return the posterior-mean best under the final model: with
	// measurement noise, the raw argmax sample is the luckiest draw,
	// not the best configuration.
	if model, err := e.fit(opts.kernelFamily()); err == nil {
		idx, _ := e.bestByPosterior(model)
		result.Best = e.samples[idx]
	} else {
		result.Best = e.best()
	}
	mBest.Set(result.Best.Eval.Score)
	trace.Emit(telemetry.Termination(reason, len(result.Samples), result.Best.Eval.Score))
	// Keep the (possibly regrown) trace storage for the next run.
	e.eiTrace = result.EITrace
	return result, nil
}

// engine holds the sample set and bookkeeping for one run, plus the
// incremental surrogate state: normalized inputs are computed once per
// evaluation (not once per refit), and the Cholesky factors of the
// hyperparameter grid are retained and extended by one row per
// observation instead of being rebuilt from scratch. Everything below
// the surrogate state is a reusable arena: a Runner keeps the engine
// across Run calls, so a warmed run allocates close to nothing.
type engine struct {
	topo    resource.Topology
	nJobs   int
	opts    Options
	samples []Sample
	seen    seenSet

	// normXs[i]/ys[i] cache the normalized input vector and score of
	// samples[i]. Within one run a row is written once in evaluate and
	// never mutated, which is what lets the GPs reference it directly
	// under the Fit ownership contract; reset rewinds the arena and
	// forces a from-scratch re-Condition before any stale reference
	// could be read.
	normXs [][]float64
	ys     []float64

	// fixed is the fixed-hyperparameter surrogate used below
	// mleMinSamples; pool holds one incrementally-conditioned GP per
	// hyperparameter grid point above it. fixedN/poolN track how many
	// samples each has been conditioned on; poolWorkers is the worker
	// count the retained pool was built with.
	fixed       *gp.GP
	fixedN      int
	pool        *gp.Pool
	poolN       int
	poolWorkers int

	// scratch pools per-goroutine prediction buffers for the
	// acquisition objectives: Maximize calls them from concurrent
	// ascents, and each evaluation needs a normalized copy of the
	// candidate plus GP solve vectors.
	scratch sync.Pool

	// means/stds/batchBuf serve bestByPosterior's bulk scoring of the
	// sampled set.
	means, stds []float64
	batchBuf    gp.PredictBuf

	// Per-iteration acquisition state published by Run and read by the
	// objective methods below. The method values are bound once in
	// newEngine so the hot loop never materializes fresh closures;
	// oneRow/oneVal are scoreOne's batch, used on the Run goroutine
	// only.
	acq         Acquisition
	curModel    *gp.GP
	curBestMean float64
	eiBatchFn   func([][]float64, []float64)
	meanBatchFn func([][]float64, []float64)
	oneRow      [1][]float64
	oneVal      [1]float64

	// Config/vector arenas for the decision loop. Each scratch config
	// is owned by exactly one call path; evaluate copies whatever it
	// keeps, so a scratch is free again by the next iteration.
	bootCfgs           []resource.Config // bootstrap arena (nBoot in use)
	nBoot              int
	xVec               []float64       // candidate flattening (Run loop, neighbours)
	vecScratch         []float64       // evaluate's flattening scratch
	rebalVec           []float64       // incumbent vector for rebalance starts
	probeCfg           resource.Config // reshuffleProbe candidate
	roundCfg           resource.Config // RoundFeasibleInto target
	candCfg            resource.Config // neighbour/perturb candidate
	neighborCfg        resource.Config // bestUnseenNeighbor winner
	frozenAllocScratch resource.Allocation
	roundScratch       resource.RoundScratch
	permBuf            []int // reshuffleProbe's resource order
	cutsBuf            []int // RandomInto's cut points
	idxBuf             []int // collectStarts' top-k selection

	// Acquisition multi-start arena: fixed-dim rows handed to
	// optimize.Maximize (which copies them into its own scratch).
	startRows  [][]float64
	nStarts    int
	starts     [][]float64
	maxScratch optimize.Scratch
	eiTrace    []float64 // EITrace storage carried across runs

	// Fit-path metrics (nil when no registry is attached): conditioned
	// sample counts per fit, incremental row appends, and from-scratch
	// (re)conditions — the incremental-vs-refit ledger.
	mFitSamples *telemetry.Histogram
	mFitAppends *telemetry.Counter
	mFitRefits  *telemetry.Counter
}

func newEngine(topo resource.Topology, nJobs int) *engine {
	e := &engine{topo: topo, nJobs: nJobs}
	e.scratch.New = func() any { return new(predictScratch) }
	e.eiBatchFn = e.eiBatch
	e.meanBatchFn = e.meanBatch
	return e
}

// reset rewinds the engine for a fresh run while keeping every arena:
// sample and normalized-input storage, seen-set buckets, the retained
// surrogates (zeroing fixedN/poolN forces a from-scratch re-Condition
// on first fit), and all per-iteration scratch.
func (e *engine) reset(opts Options) {
	e.opts = opts
	e.samples = e.samples[:0]
	e.normXs = e.normXs[:0]
	e.ys = e.ys[:0]
	e.seen.init(e.topo, e.nJobs)
	e.fixedN = 0
	e.poolN = 0
	e.nBoot = 0
	if e.pool != nil && opts.Workers != e.poolWorkers {
		// The pool's worker count is fixed at construction; a run with a
		// different setting rebuilds it.
		e.pool = nil
	}
	e.mFitSamples = opts.Metrics.Histogram("bo_fit_samples", telemetry.IterationBuckets())
	e.mFitAppends = opts.Metrics.Counter("bo_fit_appends_total")
	e.mFitRefits = opts.Metrics.Counter("bo_fit_refits_total")
}

// seenSet tracks evaluated configurations. When the flattened config
// fits 16 bytes (nJobs·Nres ≤ 16 dimensions, every unit count ≤ 255 —
// true for every topology in this repo), configs pack into a [2]uint64
// key and membership checks allocate nothing; otherwise it falls back
// to the string Key form. init keeps the map buckets across runs.
type seenSet struct {
	packed map[[2]uint64]struct{}
	str    map[string]struct{}
}

func (s *seenSet) init(topo resource.Topology, nJobs int) {
	pack := nJobs*len(topo) <= 16
	for _, spec := range topo {
		if spec.Units > 255 {
			pack = false
		}
	}
	if pack {
		if s.packed == nil {
			s.packed = make(map[[2]uint64]struct{})
		} else {
			clear(s.packed)
		}
		s.str = nil
	} else {
		if s.str == nil {
			s.str = make(map[string]struct{})
		} else {
			clear(s.str)
		}
		s.packed = nil
	}
}

// packKey packs one byte per unit count, job-major — bijective under
// the init preconditions, so packed membership equals Key membership.
func packKey(cfg resource.Config) [2]uint64 {
	var k [2]uint64
	idx := 0
	for _, a := range cfg.Jobs {
		for _, u := range a {
			k[idx>>3] |= uint64(uint8(u)) << ((idx & 7) * 8)
			idx++
		}
	}
	return k
}

func (s *seenSet) has(cfg resource.Config) bool {
	if s.packed != nil {
		_, ok := s.packed[packKey(cfg)]
		return ok
	}
	_, ok := s.str[cfg.Key()]
	return ok
}

func (s *seenSet) add(cfg resource.Config) {
	if s.packed != nil {
		s.packed[packKey(cfg)] = struct{}{}
		return
	}
	s.str[cfg.Key()] = struct{}{}
}

// bootSlot returns the next bootstrap-arena config, reusing storage
// from earlier runs.
func (e *engine) bootSlot() *resource.Config {
	if e.nBoot == len(e.bootCfgs) {
		e.bootCfgs = append(e.bootCfgs, resource.Config{})
	}
	c := &e.bootCfgs[e.nBoot]
	e.nBoot++
	return c
}

// predictScratch is one goroutine's worth of objective scratch: one
// normalized row per candidate plus the PredictBatch outputs.
type predictScratch struct {
	buf      gp.PredictBuf
	normFlat []float64
	normRows [][]float64
	means    []float64
	stds     []float64
}

// batchEval scores a candidate batch under the published per-iteration
// state (curModel, curBestMean, acq) through one PredictBatch call —
// EI, or with meanOnly the posterior mean (pure exploitation).
func (e *engine) batchEval(xs [][]float64, out []float64, meanOnly bool) {
	m := len(xs)
	if m == 0 {
		return
	}
	s := e.scratch.Get().(*predictScratch)
	dim := len(xs[0])
	if cap(s.normFlat) < m*dim {
		s.normFlat = make([]float64, m*dim)
	}
	if cap(s.normRows) < m {
		s.normRows = make([][]float64, 0, m)
	}
	s.normRows = s.normRows[:0]
	for j, x := range xs {
		row := e.topo.NormalizeInto(s.normFlat[j*dim:(j+1)*dim:(j+1)*dim], x)
		s.normRows = append(s.normRows, row)
	}
	if cap(s.means) < m {
		s.means = make([]float64, m)
		s.stds = make([]float64, m)
	}
	means, stds := s.means[:m], s.stds[:m]
	if err := e.curModel.PredictBatch(s.normRows, means, stds, &s.buf); err != nil {
		for i := range out {
			out[i] = math.Inf(-1)
		}
	} else if meanOnly {
		copy(out, means)
	} else {
		for i := range out {
			out[i] = e.acq.Value(means[i], stds[i], e.curBestMean)
		}
	}
	e.scratch.Put(s)
}

func (e *engine) eiBatch(xs [][]float64, out []float64)   { e.batchEval(xs, out, false) }
func (e *engine) meanBatch(xs [][]float64, out []float64) { e.batchEval(xs, out, true) }

// scoreOne scores x as a one-row batch of objective. It serves the
// Run goroutine's single-point scores (probe EI, eiStar, neighbour
// ranking) without a second, scalar objective path.
func (e *engine) scoreOne(objective func([][]float64, []float64), x []float64) float64 {
	e.oneRow[0] = x
	objective(e.oneRow[:], e.oneVal[:])
	return e.oneVal[0]
}

func (e *engine) evaluate(cfg resource.Config, eval EvalFunc) error {
	ev, err := eval(cfg)
	if err != nil {
		return fmt.Errorf("bo: evaluating %v: %w", cfg, err)
	}
	// Arena append: reuse the retired Sample's config and JobPerf
	// storage when rewinding left one in place. JobPerf is copied, so
	// evaluators may reuse their slice across calls.
	i := len(e.samples)
	if i < cap(e.samples) {
		e.samples = e.samples[:i+1]
	} else {
		e.samples = append(e.samples, Sample{})
	}
	s := &e.samples[i]
	s.Config.CopyFrom(cfg)
	s.Eval.Score = ev.Score
	s.Eval.JobPerf = append(s.Eval.JobPerf[:0], ev.JobPerf...)
	e.seen.add(s.Config)
	e.vecScratch = s.Config.VectorInto(e.vecScratch)
	if i < cap(e.normXs) {
		e.normXs = e.normXs[:i+1]
		e.normXs[i] = e.topo.NormalizeInto(e.normXs[i], e.vecScratch)
	} else {
		e.normXs = append(e.normXs, e.topo.NormalizeInto(nil, e.vecScratch))
	}
	e.ys = append(e.ys[:i], ev.Score)
	return nil
}

// mleMinSamples is the sample count below which hyperparameters are
// held at a fixed mid-range setting: marginal likelihood over a
// handful of points reliably prefers the over-smooth explanation,
// which collapses posterior variance and stalls exploration.
const mleMinSamples = 10

// fixedHyperModel builds the below-mleMinSamples surrogate (mid-range
// length scale, mid-range noise; deliberately not a grid point so the
// regimes stay distinguishable in tests).
func fixedHyperModel(family string) (*gp.GP, error) {
	kernel, err := gp.KernelByName(family, 0.25, 1.0)
	if err != nil {
		return nil, err
	}
	return gp.New(kernel, 1e-3), nil
}

// fit returns the surrogate conditioned on every sample so far. The
// default path is incremental: the retained Cholesky factors are
// extended by one row per new observation (O(grid·n²) per iteration),
// and model selection over the hyperparameter grid is recomputed from
// the cached log marginal likelihoods. It selects the same model a
// pool freshly Conditioned on the same samples would (O(grid·n³)) —
// the equivalence test pins it.
func (e *engine) fit(family string) (*gp.GP, error) {
	n := len(e.samples)
	e.mFitSamples.Observe(float64(n))
	if n < mleMinSamples {
		if e.fixed == nil {
			model, err := fixedHyperModel(family)
			if err != nil {
				return nil, err
			}
			e.fixed = model
		}
		if e.fixedN == 0 {
			e.mFitRefits.Inc()
			if err := e.fixed.Fit(e.normXs[:n], e.ys[:n]); err != nil {
				return nil, err
			}
		} else {
			e.mFitAppends.Add(int64(n - e.fixedN))
			for i := e.fixedN; i < n; i++ {
				if err := e.fixed.Append(e.normXs[i], e.ys[i]); err != nil {
					return nil, err
				}
			}
		}
		e.fixedN = n
		return e.fixed, nil
	}
	if e.pool == nil {
		pool, err := gp.NewPool(family, e.opts.Workers)
		if err != nil {
			return nil, err
		}
		e.pool = pool
		e.poolWorkers = e.opts.Workers
	}
	if e.poolN == 0 {
		// First pool fit of this run: condition from scratch. A pool
		// retained across Runner.Run calls re-Conditions here, reusing
		// its kernel matrices and Cholesky factors in place.
		e.mFitRefits.Inc()
		if err := e.pool.Condition(e.normXs[:n], e.ys[:n]); err != nil {
			return nil, err
		}
	} else {
		e.mFitAppends.Add(int64(n - e.poolN))
		for i := e.poolN; i < n; i++ {
			if err := e.pool.Observe(e.normXs[i], e.ys[i]); err != nil {
				return nil, err
			}
		}
	}
	e.poolN = n
	return e.pool.Best()
}

func (e *engine) best() Sample {
	best := e.samples[0]
	for _, s := range e.samples[1:] {
		if s.Eval.Score > best.Eval.Score {
			best = s
		}
	}
	return best
}

// bestByPosterior returns the sample index whose GP posterior mean is
// highest, and that mean. It scores the whole sampled set through the
// batched prediction path against the cached normalized inputs.
func (e *engine) bestByPosterior(model *gp.GP) (int, float64) {
	n := len(e.samples)
	if cap(e.means) < n {
		e.means = make([]float64, n)
		e.stds = make([]float64, n)
	}
	e.means, e.stds = e.means[:n], e.stds[:n]
	if err := model.PredictBatch(e.normXs[:n], e.means, e.stds, &e.batchBuf); err != nil {
		return 0, math.Inf(-1)
	}
	bestIdx, bestMean := 0, math.Inf(-1)
	for i, mean := range e.means {
		if mean > bestMean {
			bestMean = mean
			bestIdx = i
		}
	}
	return bestIdx, bestMean
}

func (e *engine) worst() Sample {
	worst := e.samples[0]
	for _, s := range e.samples[1:] {
		if s.Eval.Score < worst.Eval.Score {
			worst = s
		}
	}
	return worst
}

// freezeRank orders samples for dropout-copy: a job "performed best"
// in the sample where it came closest to (or met) its goal, and among
// samples where it already met the goal, in the one with the highest
// overall score — freezing the most over-provisioned allocation would
// anchor the search on waste.
func freezeRank(s Sample, job int) float64 {
	perf := 0.0
	if job < len(s.Eval.JobPerf) {
		perf = s.Eval.JobPerf[job]
	}
	if perf > 1 {
		perf = 1
	}
	return perf*1000 + s.Eval.Score
}

// chooseDropout implements the paper's refinement of dropout-copy:
// usually freeze the job that has performed best so far (at the
// allocation where it did), occasionally a random one.
func (e *engine) chooseDropout(rng *stats.RNG, random bool) (int, resource.Allocation) {
	job := rng.Intn(e.nJobs)
	if !random && rng.Float64() < dropoutKeepBestProb {
		bestPerf := math.Inf(-1)
		for j := 0; j < e.nJobs; j++ {
			for _, s := range e.samples {
				if j < len(s.Eval.JobPerf) && s.Eval.JobPerf[j] > bestPerf {
					bestPerf = s.Eval.JobPerf[j]
					job = j
				}
			}
		}
	}
	// Freeze at the allocation where the chosen job performed best.
	bestRank := math.Inf(-1)
	alloc := e.samples[0].Config.Jobs[job]
	for _, s := range e.samples {
		if r := freezeRank(s, job); r > bestRank {
			bestRank = r
			alloc = s.Config.Jobs[job]
		}
	}
	// Freezing a near-maximal allocation (e.g. the job's bootstrap
	// extremum) would leave the remaining jobs pinned at one unit each
	// — no search space at all. Skip dropout in that case.
	slack := 0
	for r := range e.topo {
		slack += e.topo[r].Units - alloc[r] - (e.nJobs - 1)
	}
	if slack < 2 {
		return -1, nil
	}
	// The frozen allocation is read only during this iteration's
	// Maximize call, so a reused scratch copy suffices.
	e.frozenAllocScratch = append(e.frozenAllocScratch[:0], alloc...)
	return job, e.frozenAllocScratch
}

// reshuffleProbe builds an unseen configuration that moves k units of
// ONE resource from a comfortably-performing job to the worst-
// performing job of the best QoS-meeting sample. Single-resource jumps
// compose across iterations into the coordinated reallocation the
// paper describes, while never yanking a donor's entire resource mix
// at once (which almost always breaks the donor's QoS).
func (e *engine) reshuffleProbe(rng *stats.RNG) (resource.Config, bool) {
	// Base on the best sample that meets QoS (score > 0.5).
	var base *Sample
	for i := range e.samples {
		s := &e.samples[i]
		if s.Eval.Score > 0.5 && (base == nil || s.Eval.Score > base.Eval.Score) {
			base = s
		}
	}
	if base == nil || e.nJobs < 2 || len(base.Eval.JobPerf) < e.nJobs {
		return resource.Config{}, false
	}
	poor := 0
	for j := 1; j < e.nJobs; j++ {
		if base.Eval.JobPerf[j] < base.Eval.JobPerf[poor] {
			poor = j
		}
	}
	// Donors: jobs meeting their goal comfortably (perf ≥ 1 means an
	// LC job inside its QoS target); fall back to everyone but poor.
	isDonor := func(j int) bool { return j != poor && base.Eval.JobPerf[j] >= 1 }
	anyDonor := false
	for j := 0; j < e.nJobs; j++ {
		if isDonor(j) {
			anyDonor = true
			break
		}
	}
	if !anyDonor {
		isDonor = func(j int) bool { return j != poor }
	}
	e.permBuf = rng.PermInto(len(e.topo), e.permBuf)
	for _, r := range e.permBuf {
		// Donor for this resource: the meeting job holding most of it.
		donor := -1
		for j := 0; j < e.nJobs; j++ {
			if isDonor(j) && base.Config.Jobs[j][r] > 1 &&
				(donor < 0 || base.Config.Jobs[j][r] > base.Config.Jobs[donor][r]) {
				donor = j
			}
		}
		if donor < 0 {
			continue
		}
		for _, k := range [...]int{3, 2, 1} {
			n := k
			if m := base.Config.Jobs[donor][r] - 1; n > m {
				n = m
			}
			if n <= 0 {
				continue
			}
			e.probeCfg.CopyFrom(base.Config)
			if !e.probeCfg.Transfer(r, donor, poor, n) {
				continue
			}
			if !e.seen.has(e.probeCfg) {
				return e.probeCfg, true
			}
		}
	}
	return resource.Config{}, false
}

// startSlot returns the next fixed-dimension row of the multi-start
// arena.
func (e *engine) startSlot() []float64 {
	if e.nStarts == len(e.startRows) {
		e.startRows = append(e.startRows, make([]float64, e.nJobs*len(e.topo)))
	}
	row := e.startRows[e.nStarts]
	e.nStarts++
	return row
}

// collectStarts seeds the acquisition maximizer: the best few samples
// (each paired with a smoothed copy), then coordinated rebalance
// jumps off the incumbent. Rows live in the start arena; Maximize
// copies them into its own scratch, so they are free again next
// iteration.
func (e *engine) collectStarts(best Sample) [][]float64 {
	e.nStarts = 0
	e.starts = e.starts[:0]
	n := len(e.samples)
	if cap(e.idxBuf) < n {
		e.idxBuf = make([]int, n)
	}
	idx := e.idxBuf[:n]
	for i := range idx {
		idx[i] = i
	}
	// Partial selection of the top three by score.
	for k := 0; k < n && k < 3; k++ {
		for i := k + 1; i < n; i++ {
			if e.samples[idx[i]].Eval.Score > e.samples[idx[k]].Eval.Score {
				idx[k], idx[i] = idx[i], idx[k]
			}
		}
	}
	top := 3
	if n < top {
		top = n
	}
	nres := len(e.topo)
	for _, i := range idx[:top] {
		v := e.samples[i].Config.VectorInto(e.startSlot())
		e.starts = append(e.starts, v)
		// A smoothed copy nudged toward the equal split escapes the
		// zero-EI plateau that sits exactly on a sampled point.
		blend := e.startSlot()
		for d := range v {
			even := float64(e.topo[d%nres].Units) / float64(e.nJobs)
			blend[d] = 0.7*v[d] + 0.3*even
		}
		e.starts = append(e.starts, blend)
	}
	// Rebalance starts move mass from the job performing best in the
	// incumbent toward the job performing worst, across every resource
	// at once. Single-unit neighbourhood moves are axis steps — exactly
	// the coordinate-descent myopia the paper criticizes — so these
	// coordinated multi-resource jumps give the acquisition maximizer a
	// line of sight across the QoS cliff.
	if e.nJobs < 2 || len(best.Eval.JobPerf) < e.nJobs {
		return e.starts
	}
	rich, poor := 0, 0
	for j := 1; j < e.nJobs; j++ {
		if best.Eval.JobPerf[j] > best.Eval.JobPerf[rich] {
			rich = j
		}
		if best.Eval.JobPerf[j] < best.Eval.JobPerf[poor] {
			poor = j
		}
	}
	if rich == poor {
		return e.starts
	}
	e.rebalVec = best.Config.VectorInto(e.rebalVec)
	for _, frac := range [...]float64{0.25, 0.5} {
		s := e.startSlot()
		copy(s, e.rebalVec)
		for r := 0; r < nres; r++ {
			give := frac * (s[rich*nres+r] - 1)
			if give <= 0 {
				continue
			}
			s[rich*nres+r] -= give
			s[poor*nres+r] += give
		}
		e.starts = append(e.starts, s)
	}
	return e.starts
}

// bestUnseenNeighbor scans the single-unit-transfer neighbourhood of
// cfg and returns the unseen feasible neighbour the current objective
// ranks highest, falling back to random perturbation when the whole
// neighbourhood has been sampled.
func (e *engine) bestUnseenNeighbor(cfg resource.Config, objective func([][]float64, []float64), rng *stats.RNG) resource.Config {
	found := false
	bestVal := math.Inf(-1)
	for r := range e.topo {
		for from := 0; from < e.nJobs; from++ {
			for to := 0; to < e.nJobs; to++ {
				e.candCfg.CopyFrom(cfg)
				if !e.candCfg.Transfer(r, from, to, 1) {
					continue
				}
				if e.seen.has(e.candCfg) {
					continue
				}
				e.xVec = e.candCfg.VectorInto(e.xVec)
				if v := e.scoreOne(objective, e.xVec); v > bestVal {
					bestVal = v
					e.neighborCfg.CopyFrom(e.candCfg)
					found = true
				}
			}
		}
	}
	if found {
		return e.neighborCfg
	}
	return e.perturb(cfg, rng)
}

// perturb returns an unseen configuration near cfg by moving single
// units between random jobs; it falls back to a fully random
// configuration if the neighbourhood is exhausted.
func (e *engine) perturb(cfg resource.Config, rng *stats.RNG) resource.Config {
	for attempt := 0; attempt < 64; attempt++ {
		e.candCfg.CopyFrom(cfg)
		moves := 1 + rng.Intn(2)
		for k := 0; k < moves; k++ {
			r := rng.Intn(len(e.topo))
			from := rng.Intn(e.nJobs)
			to := rng.Intn(e.nJobs)
			e.candCfg.Transfer(r, from, to, 1)
		}
		if !e.seen.has(e.candCfg) && e.candCfg.Validate(e.topo) == nil {
			return e.candCfg
		}
	}
	for attempt := 0; attempt < 256; attempt++ {
		resource.RandomInto(e.topo, e.nJobs, rng, &e.candCfg, &e.cutsBuf)
		if !e.seen.has(e.candCfg) {
			return e.candCfg
		}
	}
	return cfg
}
