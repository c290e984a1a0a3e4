package core

// This file is the hardening layer that lets the controller survive an
// unreliable observation substrate (internal/faults, or a real
// deployment's monitoring stack). Four mechanisms, all in simulated
// time and all recorded in the Result history:
//
//   - bounded retry with exponential backoff on transient observation
//     errors (a failed counter read costs its window; the controller
//     idles a growing number of windows before retrying);
//   - median-of-k re-measurement when a window's Eq. 3 score is a
//     statistical outlier versus what nearby sampled configurations
//     scored — a nearest-neighbour stand-in for the GP posterior,
//     which lives inside internal/bo and is not visible here;
//   - a last-known-safe-partition fallback: when the retry budget is
//     exhausted mid-search, the best previously QoS-meeting
//     configuration is returned instead of an error;
//   - a final guard pass that re-observes the best configuration (and,
//     if it fails QoS, the runners-up) before it is returned, so a
//     lucky corrupted window cannot become the answer;
//   - a derailment-recovery restart: corrupted windows early in the
//     search can steer the acquisition function away from a thin
//     feasible region for the rest of the budget, so a resilient run
//     that ends with no QoS-meeting window (and no infeasibility
//     verdict) restarts the search under a derived seed, up to
//     salvageRestarts times, keeping the full accumulated history.
//
// Everything here is gated on Resilience.Enabled: switched off, the
// controller's observation sequence is byte-identical to the baseline.

import (
	"errors"
	"math"
	"sort"

	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/telemetry"
)

// Resilience tunes the hardening. The zero value disables it; setting
// Enabled with everything else zero selects the defaults in brackets.
type Resilience struct {
	// Enabled turns hardening on.
	Enabled bool
	// MaxRetries bounds the retries after a transiently failed window
	// before the measurement is abandoned [3].
	MaxRetries int
	// BackoffWindows is the idle wait before the first retry, in units
	// of the observation window; it doubles per retry [1].
	BackoffWindows float64
	// RemeasureK is the median-of-k re-measurement width for windows
	// flagged as outliers, and the vote width when confirming an
	// infeasibility verdict [3].
	RemeasureK int
	// OutlierDrop is how far (in absolute Eq. 3 score) a window must
	// undershoot the score of the nearest previously sampled
	// configuration to be treated as a suspected outlier [0.25].
	OutlierDrop float64
	// NeighborRadius bounds how close — in normalized allocation
	// space — the nearest sample must be for its score to serve as the
	// outlier baseline [0.3].
	NeighborRadius float64
	// DisableGuard skips the final re-observation of the returned
	// configuration.
	DisableGuard bool
}

func (r Resilience) maxRetries() int {
	if r.MaxRetries > 0 {
		return r.MaxRetries
	}
	return 3
}

func (r Resilience) backoffWindows() float64 {
	if r.BackoffWindows > 0 {
		return r.BackoffWindows
	}
	return 1
}

func (r Resilience) remeasureK() int {
	if r.RemeasureK > 1 {
		return r.RemeasureK
	}
	return 3
}

func (r Resilience) outlierDrop() float64 {
	if r.OutlierDrop > 0 {
		return r.OutlierDrop
	}
	return 0.25
}

func (r Resilience) neighborRadius() float64 {
	if r.NeighborRadius > 0 {
		return r.NeighborRadius
	}
	return 0.3
}

// guardBudget caps how many candidate configurations the final guard
// pass may re-observe.
const guardBudget = 3

// salvageRestarts bounds the derailment-recovery restarts of a
// resilient search that found no QoS-meeting window.
const salvageRestarts = 2

// runtime owns one Run's measurement bookkeeping: the full window
// trace (failed and discarded windows included), the retry counter,
// and the successful samples the outlier detector compares against.
type runtime struct {
	m       server.Observer
	opts    Resilience
	jobs    []server.Job
	topo    resource.Topology
	history []Step
	retries int
	// trace receives ResilienceAction events (nil when tracing is off;
	// the nil Tracer discards emits).
	trace *telemetry.Tracer
	// points are the successful measurements (normalized allocation
	// vector + score) backing nearest-neighbour outlier detection.
	points []scoredPoint
}

type scoredPoint struct {
	x     []float64
	score float64
}

func (rt *runtime) resilient() bool { return rt.opts.Enabled }

// result snapshots the trace into a Result.
func (rt *runtime) result() Result {
	res := resultFromHistory(rt.history)
	res.Retries = rt.retries
	return res
}

// refresh re-syncs a Result's trace-derived fields after the guard
// pass appended further windows.
func (rt *runtime) refresh(res *Result) {
	res.History = rt.history
	res.SamplesUsed = len(rt.history)
	res.Attempts = len(rt.history)
	res.Retries = rt.retries
}

// canFallBack reports whether the error that aborted the search admits
// the last-known-safe fallback: resilience is on, the error is an
// observation failure (transient budget exhausted, or node loss), and
// some usable window met every QoS target.
func (rt *runtime) canFallBack(err error) bool {
	if !rt.resilient() {
		return false
	}
	if !errors.Is(err, server.ErrObservationFailed) && !errors.Is(err, server.ErrNodeFailed) {
		return false
	}
	return rt.hasFeasible()
}

// hasFeasible reports whether any usable window met every QoS target.
func (rt *runtime) hasFeasible() bool {
	for _, s := range rt.history {
		if s.Usable() && s.Obs.AllQoSMet {
			return true
		}
	}
	return false
}

// measure runs one logical measurement of cfg: a plain single window
// without resilience; with it, retry-with-backoff plus outlier
// screening and median-of-k re-measurement.
func (rt *runtime) measure(cfg resource.Config) (server.Observation, float64, error) {
	if !rt.resilient() {
		obs, err := rt.m.Observe(cfg)
		if err != nil {
			return server.Observation{}, 0, err
		}
		score := ScoreObservation(rt.jobs, obs)
		rt.history = append(rt.history, Step{Config: cfg.Clone(), Score: score, Obs: obs})
		return obs, score, nil
	}
	obs, score, err := rt.attempt(cfg)
	if err != nil {
		return server.Observation{}, 0, err
	}
	if rt.isOutlier(cfg, score) {
		obs, score = rt.remeasure(cfg, obs, score)
	}
	rt.points = append(rt.points, scoredPoint{x: rt.topo.NormalizeInto(nil, cfg.Vector()), score: score})
	return obs, score, nil
}

// attempt observes cfg with bounded retry and exponential backoff (in
// simulated windows). Every attempt — failed or not — lands in the
// history. Node failure is permanent and aborts immediately.
func (rt *runtime) attempt(cfg resource.Config) (server.Observation, float64, error) {
	backoff := rt.opts.backoffWindows()
	var lastErr error
	for try := 0; try <= rt.opts.maxRetries(); try++ {
		if try > 0 {
			rt.retries++
			rt.trace.Emit(telemetry.ResilienceAction("retry", try))
			rt.m.AdvanceClock(backoff * rt.m.Window())
			backoff *= 2
		}
		obs, err := rt.m.Observe(cfg)
		if err == nil {
			score := ScoreObservation(rt.jobs, obs)
			rt.history = append(rt.history, Step{Config: cfg.Clone(), Score: score, Obs: obs, Attempt: try})
			return obs, score, nil
		}
		rt.history = append(rt.history, Step{Config: cfg.Clone(), Failed: true, Err: err.Error(), Attempt: try})
		lastErr = err
		if errors.Is(err, server.ErrNodeFailed) {
			break
		}
	}
	return server.Observation{}, 0, lastErr
}

// isOutlier flags a score that undershoots the nearest previously
// sampled configuration's score by more than the configured drop. The
// nearest successful sample is the cheap stand-in for the GP
// posterior's prediction at cfg: close configurations score close on
// this substrate, so a huge undershoot right next to a known-good
// point smells like a corrupted window, not a real measurement.
func (rt *runtime) isOutlier(cfg resource.Config, score float64) bool {
	x := rt.topo.NormalizeInto(nil, cfg.Vector())
	nearest, dist := math.NaN(), math.Inf(1)
	for _, p := range rt.points {
		if d := rmsDist(x, p.x); d < dist {
			dist = d
			nearest = p.score
		}
	}
	if math.IsNaN(nearest) || dist > rt.opts.neighborRadius() {
		return false
	}
	return nearest-score > rt.opts.outlierDrop()
}

// remeasure replays the suspected-outlier window to median-of-k: the
// same configuration is observed k-1 more times and the median-score
// window wins; the others stay in the history marked Discarded.
func (rt *runtime) remeasure(cfg resource.Config, firstObs server.Observation, firstScore float64) (server.Observation, float64) {
	type sample struct {
		obs   server.Observation
		score float64
		idx   int // history index of the successful window
	}
	k := rt.opts.remeasureK()
	rt.trace.Emit(telemetry.ResilienceAction("remeasure", k))
	samples := []sample{{firstObs, firstScore, len(rt.history) - 1}}
	for len(samples) < k {
		rt.retries++
		obs, score, err := rt.attempt(cfg)
		if err != nil {
			break // take the median of what we have
		}
		samples = append(samples, sample{obs, score, len(rt.history) - 1})
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].score < samples[j].score })
	med := samples[len(samples)/2]
	for _, s := range samples {
		if s.idx != med.idx {
			rt.history[s.idx].Discarded = true
		}
	}
	return med.obs, med.score
}

// confirmViolation re-measures a bootstrap-extremum window that showed
// a QoS violation before the violation becomes an infeasibility
// verdict: ejecting a job to another node (Sec. 4) on the word of one
// possibly-corrupted window would be exactly the fragility this layer
// exists to remove. The verdict stands only if a majority of k windows
// agree. Without resilience the single window is trusted, as before.
func (rt *runtime) confirmViolation(cfg resource.Config, job int, obs server.Observation, score float64) (bool, server.Observation, float64) {
	if !rt.resilient() {
		return true, obs, score
	}
	k := rt.opts.remeasureK()
	rt.trace.Emit(telemetry.ResilienceAction("confirm-violation", k))
	violations, votes := 1, 1
	bestObs, bestScore := obs, score
	for votes < k {
		rt.retries++
		o, s, err := rt.attempt(cfg)
		if err != nil {
			break
		}
		votes++
		if !o.QoSMet[job] {
			violations++
		} else if s > bestScore {
			bestObs, bestScore = o, s
		}
	}
	if 2*violations > votes {
		return true, obs, score
	}
	// Overruled: the violating window was the outlier. Keep the best
	// passing window and mark the violating one discarded if it still
	// backs nothing.
	return false, bestObs, bestScore
}

// guard re-observes the best configuration before it is returned, so
// the answer rests on a fresh window rather than a possibly lucky or
// corrupted historical one. If the fresh window misses QoS, up to
// guardBudget-1 runner-up configurations that previously met QoS get
// the same treatment, and the first to verify becomes the result. If
// none verifies, the original best is kept with its honest (failing)
// guard observation.
func (rt *runtime) guard(res *Result) {
	if res.Best.NumJobs() == 0 {
		return
	}
	rt.trace.Emit(telemetry.ResilienceAction("guard", guardBudget))
	var firstObs server.Observation
	var firstScore float64
	haveFirst := false
	for _, cfg := range rt.guardCandidates(res.Best) {
		obs, score, err := rt.measure(cfg)
		if err != nil {
			// The guard could not verify (node died, retries spent);
			// keep the unguarded answer rather than lose it.
			break
		}
		if !haveFirst {
			firstObs, firstScore, haveFirst = obs, score, true
		}
		if obs.AllQoSMet {
			res.Best = cfg.Clone()
			res.BestScore = score
			res.BestObs = obs
			res.QoSMeetable = true
			rt.refresh(res)
			return
		}
	}
	if haveFirst {
		res.BestScore = firstScore
		res.BestObs = firstObs
		res.QoSMeetable = firstObs.AllQoSMet
	}
	rt.refresh(res)
}

// guardCandidates orders the configurations worth verifying: the best
// first, then the highest-scoring distinct QoS-meeting alternatives.
func (rt *runtime) guardCandidates(best resource.Config) []resource.Config {
	cands := []resource.Config{best}
	seen := map[string]bool{best.Key(): true}
	idx := make([]int, 0, len(rt.history))
	for i, s := range rt.history {
		if s.Usable() && s.Obs.AllQoSMet && !seen[s.Config.Key()] {
			idx = append(idx, i)
			seen[s.Config.Key()] = true
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return rt.history[idx[a]].Score > rt.history[idx[b]].Score })
	for _, i := range idx {
		if len(cands) >= guardBudget {
			break
		}
		cands = append(cands, rt.history[i].Config)
	}
	return cands
}

func rmsDist(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a)))
}
