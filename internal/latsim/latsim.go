// Package latsim provides the tail-latency machinery under the
// simulated latency-critical workloads: exact M/M/c response-time
// distributions (Erlang-C), percentile inversion, overload behaviour,
// noisy windowed measurement, and a discrete-event simulator used to
// validate the analytic formulas.
//
// The paper measures each candidate resource partition by running the
// real system for a two-second observation window and reading the 95th
// percentile latency from performance counters. Here a workload's
// resource allocation determines a service rate and a parallelism
// level (see internal/workload); latsim turns those plus the offered
// load into the p95 an observation window would report, including the
// sampling noise a finite window implies.
package latsim

import (
	"math"

	"clite/internal/stats"
)

// Queue is an M/M/c queueing station: c homogeneous servers, each
// completing work at rate ServiceRate requests/second.
type Queue struct {
	Servers     int
	ServiceRate float64 // per-server μ, requests/second
}

// Capacity returns the maximum sustainable arrival rate c·μ.
func (q Queue) Capacity() float64 {
	return float64(q.Servers) * q.ServiceRate
}

// Utilization returns ρ = λ/(c·μ).
func (q Queue) Utilization(lambda float64) float64 {
	cap := q.Capacity()
	if cap <= 0 {
		return math.Inf(1)
	}
	return lambda / cap
}

// ErlangC returns the probability that an arriving request must wait,
// computed with the standard numerically-stable recurrence.
func (q Queue) ErlangC(lambda float64) float64 {
	c := q.Servers
	rho := q.Utilization(lambda)
	if rho >= 1 {
		return 1
	}
	if lambda <= 0 {
		return 0
	}
	a := lambda / q.ServiceRate // offered load in Erlangs
	// Erlang-B recurrence: B(0)=1, B(k) = a·B(k−1)/(k + a·B(k−1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	// Erlang-C from Erlang-B.
	return b / (1 - rho*(1-b))
}

// ResponseTail returns P(T > t) for the sojourn time T (wait + service)
// of an M/M/c FCFS queue. The waiting time is exactly
// P(W > t) = C·e^{−θt} with θ = cμ−λ, and W is independent of the
// exponential service time S, giving a closed form for the tail.
func (q Queue) ResponseTail(lambda, t float64) float64 {
	mu := q.ServiceRate
	theta := q.Capacity() - lambda
	if theta <= 0 {
		if t <= 0 {
			return 1
		}
		return 1 // overloaded: handled by OverloadP95
	}
	return tailWith(q.ErlangC(lambda), mu, theta, t)
}

// tailWith evaluates the sojourn tail given a precomputed waiting
// probability pw = ErlangC(λ); pw depends only on (λ, q), so callers
// that probe many t values (percentile bisection) compute it once.
func tailWith(pw, mu, theta, t float64) float64 {
	if t <= 0 {
		return 1
	}
	sTail := math.Exp(-mu * t)
	if math.Abs(mu-theta) < 1e-9*mu {
		// Degenerate case μ ≈ θ: S+E is Gamma(2, μ).
		return (1-pw)*sTail + pw*(1+mu*t)*sTail
	}
	convTail := (mu*math.Exp(-theta*t) - theta*sTail) / (mu - theta)
	return (1-pw)*sTail + pw*convTail
}

// ResponsePercentile inverts ResponseTail by bisection, returning the
// p-th percentile (p in (0,100)) of the sojourn time in seconds. The
// Erlang-C waiting probability is invariant across the bisection, so
// it is computed once and shared by every tail probe (the recurrence
// is O(c) and would otherwise dominate the 80-step search). The search
// stops early once the bracket is two adjacent floats: from then on
// every midpoint equals lo or hi, so the remaining steps cannot move
// the result.
func (q Queue) ResponsePercentile(lambda, p float64) float64 {
	if q.Utilization(lambda) >= 1 {
		return math.Inf(1)
	}
	target := 1 - p/100
	// Bracket: the mean sojourn is 1/μ + C/θ; the percentile cannot
	// exceed a generous multiple of it.
	mu := q.ServiceRate
	theta := q.Capacity() - lambda
	pw := q.ErlangC(lambda)
	hi := (1/mu + pw/theta) * 50
	lo := 0.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return mid
		}
		if tailWith(pw, mu, theta, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MeanResponse returns E[T] = 1/μ + C/(cμ−λ), or +Inf when overloaded.
func (q Queue) MeanResponse(lambda float64) float64 {
	theta := q.Capacity() - lambda
	if theta <= 0 {
		return math.Inf(1)
	}
	return 1/q.ServiceRate + q.ErlangC(lambda)/theta
}

// overloadThreshold is the utilization beyond which the analytic
// steady-state percentile is replaced by transient overload growth:
// near saturation a two-second window never reaches steady state.
const overloadThreshold = 0.98

// tailInflation calibrates the service-variability correction added on
// top of the exact M/M/c percentile. Real serving stacks have service
// time distributions with coefficient of variation well above 1
// (garbage collection, lock convoys, request-size skew), which makes
// tail latency bend upward much earlier than the exponential-service
// model predicts — this Kingman-style ρ²/(1−ρ) term reproduces that
// hockey-stick shape, putting the Fig. 6 knees around 80–85%%
// utilization as in the paper instead of at 98%%.
const tailInflation = 2.0

// inflatedP95 is the measured-system p95: the exact M/M/c percentile
// plus the service-variability correction.
func (q Queue) inflatedP95(lambda float64) float64 {
	rho := q.Utilization(lambda)
	return q.ResponsePercentile(lambda, 95) +
		tailInflation/q.ServiceRate*rho*rho/(1-rho)
}

// OverloadP95 models the p95 an observation window of the given length
// reports when the station is saturated: the backlog grows at rate
// λ−cμ, so late-window requests see a queueing delay proportional to
// the elapsed window. It is continuous-ish with the analytic branch at
// the threshold and strictly increasing in λ, which gives search
// policies a gradient to climb out of infeasible regions.
func (q Queue) OverloadP95(lambda, window float64) float64 {
	cap := q.Capacity()
	if cap <= 0 {
		return window
	}
	// Base: the (inflation-corrected) p95 at the threshold utilization.
	base := q.inflatedP95(overloadThreshold * cap)
	excess := lambda/cap - overloadThreshold
	if excess < 0 {
		excess = 0
	}
	// Each unit of excess utilization adds backlog worth a fraction of
	// the window by its 95th percentile arrival.
	return base + 0.95*window*excess
}

// P95 returns the 95th-percentile latency for offered load lambda as a
// full observation window would report it in steady state, switching
// to the transient overload model near and beyond saturation.
func (q Queue) P95(lambda, window float64) float64 {
	if q.Servers <= 0 || q.ServiceRate <= 0 {
		return window
	}
	if q.Utilization(lambda) >= overloadThreshold {
		return q.OverloadP95(lambda, window)
	}
	return q.inflatedP95(lambda)
}

// MeasureP95 reports the p95 of one observation window: the analytic
// value with the window's sampling noise applied by Measured.
func (q Queue) MeasureP95(lambda, window float64, rng *stats.RNG) float64 {
	return Measured(q.P95(lambda, window), lambda, window, rng)
}

// Measured perturbs an analytic p95 (ideal, as P95 returns it) by the
// sampling noise of one observation window, whose magnitude shrinks
// with the number of queries observed in the window (few queries → a
// shaky percentile estimate, the effect the paper's two-second window
// is sized to control). It makes exactly one draw from rng, so a
// caller that memoises ideal consumes the noise stream as MeasureP95
// does.
func Measured(ideal, lambda, window float64, rng *stats.RNG) float64 {
	n := lambda * window // expected queries in the window
	if n < 1 {
		n = 1
	}
	// The standard error of an empirical p95 over n samples scales as
	// ~1/√(n·p·(1−p)); 0.35 calibrates to a few percent of noise at
	// the paper's typical (thousands of queries per window) regime.
	sigma := stats.Clamp(0.35/math.Sqrt(n*0.05), 0.005, 0.6)
	return ideal * rng.LogNormalFactor(sigma)
}
