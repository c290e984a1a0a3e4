// Package core implements the CLITE controller itself: the Eq. 3
// score function over observation windows, infeasible-job detection
// during bootstrapping, the observe→score→refit loop driven by the
// internal/bo engine, and re-invocation on load changes (Sec. 4,
// "Putting it all together", Fig. 5).
//
// CLITE runs as a background task next to the co-located jobs: it
// proposes a resource partition, the machine enforces it with the
// isolation tools and runs a two-second observation window, the
// resulting per-job measurements are scored, and the Bayesian-
// optimization engine picks the next partition until the expected
// improvement dries up.
package core

import (
	"errors"
	"fmt"

	"clite/internal/bo"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/stats"
	"clite/internal/telemetry"
)

// Options configures a CLITE run. The zero value is the paper's
// configuration.
type Options struct {
	BO bo.Options
	// Resilience hardens the controller against observation failures,
	// corrupted measurements, and node loss (see resilience.go). The
	// zero value leaves hardening off, in which case the controller
	// behaves byte-identically to the baseline implementation.
	Resilience Resilience
	// Trace receives the run's timeline — BO iterations, observation
	// windows, QoS violations, resilience actions, termination — when
	// non-nil. It is threaded down into the BO engine and, when the
	// observer supports it, the machine. Nil disables tracing at zero
	// cost and leaves results byte-identical.
	Trace *telemetry.Tracer
	// Metrics receives counters/gauges/histograms when non-nil,
	// threaded the same way as Trace.
	Metrics *telemetry.Registry
}

// telemetrySink is implemented by observers (the simulated machine,
// the fault injector) that can publish into the telemetry layer.
type telemetrySink interface {
	SetTelemetry(*telemetry.Tracer, *telemetry.Registry)
}

// Step pairs one evaluated configuration with the observation that
// produced its score, preserving the full decision trace (Fig. 9b and
// Fig. 15b are plots over this history). Failed and retried windows
// appear in the trace too — a window that was paid for is never
// silently dropped.
type Step struct {
	Config resource.Config
	Score  float64
	Obs    server.Observation
	// Failed marks a window that returned an error instead of an
	// observation: Score is 0, Obs is the zero value, and Err carries
	// the message.
	Failed bool
	// Err is the observation error text of a failed window.
	Err string
	// Attempt is the retry ordinal of this window for its
	// configuration measurement (0 = first try).
	Attempt int
	// Discarded marks an outlier window that a median-of-k
	// re-measurement superseded; its observation stays visible here
	// but is excluded from best-configuration selection.
	Discarded bool
}

// Usable reports whether the step carries a measurement that may back
// the returned best configuration.
func (s Step) Usable() bool { return !s.Failed && !s.Discarded }

// Result is the outcome of one CLITE invocation.
type Result struct {
	// Best is the highest-scoring partition found.
	Best resource.Config
	// BestScore is its Eq. 3 score.
	BestScore float64
	// BestObs is the observation that produced BestScore.
	BestObs server.Observation
	// SamplesUsed counts evaluated configurations, bootstrap included
	// (the Fig. 15a overhead metric).
	SamplesUsed int
	// Converged reports whether a BO termination rule (EI drop,
	// stagnation or exhaustion of the partition space) ended the
	// search before its iteration cap.
	Converged bool
	// QoSMeetable reports whether the best configuration met every LC
	// job's QoS target.
	QoSMeetable bool
	// Infeasible lists LC jobs that missed their QoS target even with
	// the maximum possible allocation; such jobs should be scheduled
	// on another node (Sec. 4) and the search stops early.
	Infeasible []int
	// History is the full evaluation trace, failed and discarded
	// windows included.
	History []Step
	// EITrace is the acquisition maximum per iteration.
	EITrace []float64
	// Attempts counts every observation window attempted, retries,
	// re-measurements and the guard pass included. Without resilience
	// it equals SamplesUsed.
	Attempts int
	// Retries counts the windows beyond each measurement's first
	// attempt: retry-after-failure, median-of-k re-measurements, and
	// infeasibility confirmation. Always 0 without resilience.
	Retries int
	// FellBack reports that the observation retry budget was exhausted
	// (or the node died) and Best is the last known QoS-safe partition
	// rather than a converged answer.
	FellBack bool
}

// Controller is a CLITE instance bound to one machine — or to anything
// else implementing the observation contract, such as a fault
// injector wrapping a machine.
type Controller struct {
	machine server.Observer
	opts    Options
}

// New returns a controller for the machine (any server.Observer).
// When Options carries telemetry and the observer can publish into it
// (the simulated machine and the fault injector both can), the sinks
// are attached here so per-window events flow without the caller
// wiring each layer by hand.
func New(machine server.Observer, opts Options) *Controller {
	if opts.Trace != nil || opts.Metrics != nil {
		if sink, ok := machine.(telemetrySink); ok {
			sink.SetTelemetry(opts.Trace, opts.Metrics)
		}
	}
	return &Controller{machine: machine, opts: opts}
}

// Score implements Eq. 3 of the paper over one observation.
//
// If any LC job misses its QoS target, the score is at most 0.5:
// half the geometric mean of the per-LC-job min(1, target/latency)
// ratios. Once every LC job meets QoS, the score is 0.5 plus half the
// geometric mean of the BG jobs' isolation-normalized performance —
// or of the LC jobs' when no BG jobs are co-located ("NBG is simply
// replaced by NLC in this scenario").
//
// The paper's Eq. 3 writes plain products; with the per-term 1/N
// exponent (geometric mean) the score keeps the same ordering and
// optima while staying in [0, 1] for any number of jobs, which is the
// normalization property Sec. 4 asks of the score function. This
// deviation is documented in DESIGN.md.
func (c *Controller) Score(obs server.Observation) float64 {
	return ScoreObservation(c.machine.Jobs(), obs)
}

// ScoreObservation is Score for explicit job metadata: one
// MakeScoreTerm per job, closed by ScoreFromTerms — the same terms the
// ORACLE sweep caches, so there is one Eq. 3 implementation.
func ScoreObservation(jobs []server.Job, obs server.Observation) float64 {
	terms := make([]ScoreTerm, len(jobs))
	for i, job := range jobs {
		terms[i] = MakeScoreTerm(job, obs.P95[i], obs.QoSMet[i], obs.NormPerf[i])
	}
	return ScoreFromTerms(terms)
}

// jobPerf extracts the per-job "how well is this job doing" signal the
// dropout-copy heuristic consumes: QoS headroom for LC jobs,
// normalized throughput for BG jobs.
func jobPerf(jobs []server.Job, obs server.Observation) []float64 {
	out := make([]float64, len(jobs))
	for i, job := range jobs {
		if job.IsLC() {
			if obs.P95[i] > 0 {
				out[i] = stats.Clamp(job.QoS/obs.P95[i], 0, 2)
			}
		} else {
			out[i] = stats.Clamp(obs.NormPerf[i], 0, 2)
		}
	}
	return out
}

// infeasibleError aborts the BO loop as soon as the bootstrap proves a
// job cannot meet QoS even with everything.
type infeasibleError struct {
	job int
}

func (e infeasibleError) Error() string {
	return fmt.Sprintf("core: job %d misses QoS under maximum allocation", e.job)
}

// Rerun re-invokes the controller after a load or mix change, seeding
// the search with the previously converged partition (Sec. 4: "if the
// observed performance or the job mix changes, CLITE can be reinvoked
// to determine new optimal resource partition"). Starting from the old
// operating point lets the new search shift allocations incrementally
// instead of rediscovering the feasible region.
//
// The resilience policy — retry budget, backoff schedule, outlier
// re-measurement, guard pass — carries over unchanged from the
// original controller: a re-invocation runs under exactly the same
// fault tolerances as the run it replaces.
func (c *Controller) Rerun(prev Result) (Result, error) {
	opts := c.opts
	if prev.Best.NumJobs() == c.machine.NumJobs() {
		boCopy := opts.BO
		boCopy.ExtraBootstrap = append(append([]resource.Config(nil), boCopy.ExtraBootstrap...), prev.Best)
		opts.BO = boCopy
	}
	replay := &Controller{machine: c.machine, opts: opts}
	return replay.Run()
}

// RunWarm is the warm-start entry point: it executes one full CLITE
// invocation with the BO bootstrap replaced by the given seed
// configurations (see bo.Options.SeedConfigs). The cluster scheduler
// uses it when a co-location profile near-matches a cached one — the
// cached run's best partitions stand in for the engineered bootstrap,
// so the screen starts inside the known-feasible region instead of
// re-deriving it. With no seeds it falls back to a cold Run.
func (c *Controller) RunWarm(seeds []resource.Config) (Result, error) {
	if len(seeds) == 0 {
		return c.Run()
	}
	opts := c.opts
	boCopy := opts.BO
	boCopy.SeedConfigs = append([]resource.Config(nil), seeds...)
	opts.BO = boCopy
	warm := &Controller{machine: c.machine, opts: opts}
	return warm.Run()
}

// Run executes one full CLITE invocation: bootstrap, BO search,
// termination. The machine is left in whatever configuration was
// sampled last; callers wanting the best partition enforced should
// follow with ApplyBest.
func (c *Controller) Run() (Result, error) {
	m := c.machine
	nJobs := m.NumJobs()
	if nJobs == 0 {
		return Result{}, errors.New("core: no jobs placed on the machine")
	}
	topo := m.Topology()
	jobs := m.Jobs()

	// Map each LC job to its bootstrap extremum configuration so the
	// evaluation callback can detect "cannot meet QoS even under
	// maximum allocation" (Sec. 4) and stop wasting BO cycles.
	extremumKey := make(map[string]int, nJobs)
	if !c.opts.BO.RandomBootstrap {
		for j, job := range jobs {
			if job.IsLC() {
				extremumKey[resource.Extremum(topo, nJobs, j).Key()] = j
			}
		}
	}

	trace := c.opts.Trace
	span := trace.Begin("clite-run", -1)
	rt := &runtime{m: m, opts: c.opts.Resilience, jobs: jobs, topo: topo, trace: trace}
	eval := func(cfg resource.Config) (bo.Evaluation, error) {
		obs, score, err := rt.measure(cfg)
		if err != nil {
			return bo.Evaluation{}, err
		}
		if j, ok := extremumKey[cfg.Key()]; ok && !obs.QoSMet[j] {
			confirmed, cObs, cScore := rt.confirmViolation(cfg, j, obs, score)
			if confirmed {
				return bo.Evaluation{}, infeasibleError{job: j}
			}
			obs, score = cObs, cScore
		}
		return bo.Evaluation{Score: score, JobPerf: jobPerf(jobs, obs)}, nil
	}

	boOpts := c.opts.BO
	if boOpts.Trace == nil {
		boOpts.Trace = c.opts.Trace
	}
	if boOpts.Metrics == nil {
		boOpts.Metrics = c.opts.Metrics
	}
	var boRes bo.Result
	var err error
	var eiTrace []float64
	for restart := 0; ; restart++ {
		boRes, err = bo.Run(topo, nJobs, eval, boOpts)
		var infeasible infeasibleError
		switch {
		case errors.As(err, &infeasible):
			res := rt.result()
			res.Infeasible = []int{infeasible.job}
			trace.Emit(telemetry.Termination("infeasible", res.SamplesUsed, res.BestScore))
			trace.End("clite-run", -1, span, res.SamplesUsed, false)
			return res, nil
		case err != nil && rt.canFallBack(err):
			// The retry budget is exhausted (or the node died) but a
			// QoS-meeting partition was seen: return it as the last
			// known safe answer instead of erroring.
			res := rt.result()
			res.FellBack = true
			trace.Emit(telemetry.ResilienceAction("fallback", restart))
			trace.Emit(telemetry.Termination("fallback", res.SamplesUsed, res.BestScore))
			trace.End("clite-run", -1, span, res.SamplesUsed, res.QoSMeetable)
			return res, nil
		case err != nil:
			// A transient-failure streak with nothing to fall back on
			// does not mean the node is gone; restart the search if the
			// budget allows rather than give up.
			if rt.resilient() && restart < salvageRestarts && errors.Is(err, server.ErrObservationFailed) {
				boOpts.Seed = c.opts.BO.Seed + int64(restart+1)*0x9E3779B9
				trace.Emit(telemetry.ResilienceAction("salvage-restart", restart+1))
				continue
			}
			return Result{}, err
		}
		eiTrace = append(eiTrace, boRes.EITrace...)
		if !rt.resilient() || rt.hasFeasible() || restart >= salvageRestarts {
			break
		}
		// Derailment recovery: a corrupted early window can steer the
		// acquisition away from a thin feasible region for the whole
		// budget. Restart the search from a derived seed; the spent
		// windows stay in the accumulated history.
		boOpts.Seed = c.opts.BO.Seed + int64(restart+1)*0x9E3779B9
		trace.Emit(telemetry.ResilienceAction("salvage-restart", restart+1))
	}
	res := rt.result()
	res.Converged = boRes.Converged
	res.EITrace = eiTrace
	if rt.resilient() && !c.opts.Resilience.DisableGuard {
		rt.guard(&res)
	}
	trace.End("clite-run", -1, span, res.SamplesUsed, res.QoSMeetable)
	return res, nil
}

func resultFromHistory(history []Step) Result {
	res := Result{History: history, SamplesUsed: len(history), Attempts: len(history)}
	bestIdx := -1
	for i, s := range history {
		if !s.Usable() {
			continue
		}
		if bestIdx < 0 || s.Score > history[bestIdx].Score {
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		res.Best = history[bestIdx].Config
		res.BestScore = history[bestIdx].Score
		res.BestObs = history[bestIdx].Obs
		res.QoSMeetable = history[bestIdx].Obs.AllQoSMet
	}
	return res
}

// ApplyBest re-applies the result's best partition to the machine and
// returns a fresh observation under it.
func (c *Controller) ApplyBest(res Result) (server.Observation, error) {
	if res.Best.NumJobs() == 0 {
		return server.Observation{}, errors.New("core: result has no best configuration")
	}
	return c.machine.Observe(res.Best)
}

// Monitor watches the machine under a fixed partition for the given
// number of observation windows (the Sec. 4 post-convergence phase).
// It reports true — "re-invoke CLITE" — once two consecutive windows
// show a QoS violation, which is what happens when the offered load
// shifts (Fig. 16). Requiring two windows keeps a single noisy p95
// estimate from triggering a full re-partitioning.
//
// With resilience enabled, a transiently failed window carries no
// signal: it neither counts as a violation nor resets the streak. Up
// to MaxRetries consecutive failed windows are tolerated before the
// error is surfaced; permanent node failure surfaces immediately.
func (c *Controller) Monitor(cfg resource.Config, windows int) (reinvoke bool, err error) {
	violations := 0
	failStreak := 0
	for i := 0; i < windows; i++ {
		obs, err := c.machine.Observe(cfg)
		if err != nil {
			if !c.opts.Resilience.Enabled || errors.Is(err, server.ErrNodeFailed) {
				return false, err
			}
			failStreak++
			if failStreak > c.opts.Resilience.maxRetries() {
				return false, err
			}
			continue
		}
		failStreak = 0
		if !obs.AllQoSMet {
			violations++
			if violations >= 2 {
				return true, nil
			}
		} else {
			violations = 0
		}
	}
	return false, nil
}
