package latsim

import (
	"math"
	"testing"
	"testing/quick"

	"clite/internal/stats"
)

func TestCapacityAndUtilization(t *testing.T) {
	q := Queue{Servers: 4, ServiceRate: 100}
	if got := q.Capacity(); got != 400 {
		t.Errorf("Capacity = %v, want 400", got)
	}
	if got := q.Utilization(200); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if !math.IsInf(Queue{}.Utilization(10), 1) {
		t.Error("zero-capacity utilization should be +Inf")
	}
}

func TestErlangCSingleServerIsRho(t *testing.T) {
	// For M/M/1 the waiting probability equals ρ.
	q := Queue{Servers: 1, ServiceRate: 10}
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		got := q.ErlangC(rho * 10)
		if math.Abs(got-rho) > 1e-9 {
			t.Errorf("ErlangC(rho=%v) = %v, want %v", rho, got, rho)
		}
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Classic call-center example: c=10 servers, a=8 Erlangs offered
	// load → C ≈ 0.4092 (standard tables).
	q := Queue{Servers: 10, ServiceRate: 1}
	got := q.ErlangC(8)
	if math.Abs(got-0.4092) > 0.002 {
		t.Errorf("ErlangC = %v, want ≈0.4092", got)
	}
}

func TestErlangCBounds(t *testing.T) {
	q := Queue{Servers: 5, ServiceRate: 10}
	if got := q.ErlangC(0); got != 0 {
		t.Errorf("ErlangC(0) = %v, want 0", got)
	}
	if got := q.ErlangC(60); got != 1 {
		t.Errorf("overloaded ErlangC = %v, want 1", got)
	}
	f := func(lamByte uint16) bool {
		lam := float64(lamByte%490) / 10.0 // < capacity 50
		c := q.ErlangC(lam)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseTailProperties(t *testing.T) {
	q := Queue{Servers: 3, ServiceRate: 50}
	lambda := 100.0
	if got := q.ResponseTail(lambda, 0); got != 1 {
		t.Errorf("Tail(0) = %v, want 1", got)
	}
	prev := 1.0
	for ts := 0.001; ts < 0.5; ts *= 1.7 {
		tail := q.ResponseTail(lambda, ts)
		if tail < -1e-12 || tail > prev+1e-12 {
			t.Fatalf("tail not monotone decreasing in [0,1]: %v at t=%v (prev %v)", tail, ts, prev)
		}
		prev = tail
	}
	if q.ResponseTail(lambda, 10) > 1e-6 {
		t.Error("tail should vanish for large t")
	}
}

func TestResponsePercentileInvertsTail(t *testing.T) {
	q := Queue{Servers: 2, ServiceRate: 200}
	lambda := 300.0
	for _, p := range []float64{50, 90, 95, 99} {
		ts := q.ResponsePercentile(lambda, p)
		tail := q.ResponseTail(lambda, ts)
		if math.Abs(tail-(1-p/100)) > 1e-6 {
			t.Errorf("percentile %v: tail(%v) = %v", p, ts, tail)
		}
	}
	if !math.IsInf(q.ResponsePercentile(500, 95), 1) {
		t.Error("overloaded percentile should be +Inf")
	}
}

func TestMeanResponseMM1(t *testing.T) {
	// M/M/1: E[T] = 1/(μ−λ).
	q := Queue{Servers: 1, ServiceRate: 10}
	got := q.MeanResponse(6)
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("MeanResponse = %v, want 0.25", got)
	}
	if !math.IsInf(q.MeanResponse(10), 1) {
		t.Error("saturated mean should be +Inf")
	}
}

func TestP95MonotoneInLoad(t *testing.T) {
	q := Queue{Servers: 4, ServiceRate: 100}
	prev := 0.0
	for lam := 10.0; lam < 600; lam += 10 {
		p := q.P95(lam, 2.0)
		if p < prev-1e-9 {
			t.Fatalf("P95 not monotone at λ=%v: %v < %v", lam, p, prev)
		}
		prev = p
	}
}

func TestP95OverloadGrowsWithLoad(t *testing.T) {
	q := Queue{Servers: 2, ServiceRate: 100}
	atCap := q.P95(200, 2.0)
	beyond := q.P95(400, 2.0)
	if beyond <= atCap {
		t.Errorf("overload P95 should keep growing: %v vs %v", beyond, atCap)
	}
	if beyond > 6.0 {
		t.Errorf("overload P95 should stay on the order of the window: %v", beyond)
	}
}

func TestP95DegenerateQueue(t *testing.T) {
	if got := (Queue{}).P95(100, 2.0); got != 2.0 {
		t.Errorf("degenerate queue P95 = %v, want window", got)
	}
}

func TestMeasureP95NoiseShrinksWithLoad(t *testing.T) {
	q := Queue{Servers: 8, ServiceRate: 500}
	rng := stats.NewRNG(21)
	spread := func(lambda float64) float64 {
		ideal := q.P95(lambda, 2.0)
		var rel []float64
		for i := 0; i < 400; i++ {
			rel = append(rel, q.MeasureP95(lambda, 2.0, rng)/ideal)
		}
		return stats.StdDev(rel)
	}
	low := spread(20)    // 40 queries per window
	high := spread(2000) // 4000 queries per window
	if high >= low {
		t.Errorf("noise should shrink with more queries: %v vs %v", high, low)
	}
	if low > 0.7 || high > 0.05 {
		t.Errorf("noise out of calibrated range: low-load %v, high-load %v", low, high)
	}
}

func TestMeasureP95Unbiasedish(t *testing.T) {
	q := Queue{Servers: 4, ServiceRate: 250}
	rng := stats.NewRNG(31)
	ideal := q.P95(600, 2.0)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += q.MeasureP95(600, 2.0, rng)
	}
	if got := sum / n; math.Abs(got/ideal-1) > 0.02 {
		t.Errorf("measured mean %v vs ideal %v", got, ideal)
	}
}

// TestAnalyticMatchesDiscreteEventSim is the package's ground-truth
// check: the closed-form p95 must agree with a discrete-event
// simulation of the same queue.
func TestAnalyticMatchesDiscreteEventSim(t *testing.T) {
	cases := []struct {
		q      Queue
		lambda float64
	}{
		{Queue{Servers: 1, ServiceRate: 1000}, 600},
		{Queue{Servers: 4, ServiceRate: 300}, 700},
		{Queue{Servers: 8, ServiceRate: 100}, 500},
	}
	rng := stats.NewRNG(77)
	for _, c := range cases {
		var all []float64
		for rep := 0; rep < 30; rep++ {
			all = append(all, SimulateWindow(c.q, c.lambda, 10, rng.Split(int64(rep)))...)
		}
		simP95 := stats.Percentile(all, 95)
		anaP95 := c.q.ResponsePercentile(c.lambda, 95)
		if math.Abs(simP95/anaP95-1) > 0.08 {
			t.Errorf("c=%d μ=%v λ=%v: DES p95 %v vs analytic %v",
				c.q.Servers, c.q.ServiceRate, c.lambda, simP95, anaP95)
		}
	}
}

func TestSimulateWindowEdgeCases(t *testing.T) {
	rng := stats.NewRNG(1)
	if got := SimulateWindow(Queue{}, 10, 1, rng); got != nil {
		t.Error("degenerate queue should simulate nothing")
	}
	if got := SimulateWindow(Queue{Servers: 1, ServiceRate: 1}, 0, 1, rng); got != nil {
		t.Error("zero load should simulate nothing")
	}
	resp := SimulateWindow(Queue{Servers: 2, ServiceRate: 100}, 50, 2, rng)
	for i := 1; i < len(resp); i++ {
		if resp[i] < resp[i-1] {
			t.Fatal("responses should be sorted")
		}
		if resp[i] < 0 {
			t.Fatal("negative response time")
		}
	}
}

// refTail is the sojourn tail as first written: every exponential
// evaluated where it appears.
func refTail(pw, mu, theta, t float64) float64 {
	if t <= 0 {
		return 1
	}
	if math.Abs(mu-theta) < 1e-9*mu {
		return (1-pw)*math.Exp(-mu*t) + pw*(1+mu*t)*math.Exp(-mu*t)
	}
	convTail := (mu*math.Exp(-theta*t) - theta*math.Exp(-mu*t)) / (mu - theta)
	return (1-pw)*math.Exp(-mu*t) + pw*convTail
}

// refPercentile is the full 80-step bisection the early exit must
// reproduce bit for bit.
func refPercentile(q Queue, lambda, p float64) float64 {
	if q.Utilization(lambda) >= 1 {
		return math.Inf(1)
	}
	target := 1 - p/100
	mu := q.ServiceRate
	theta := q.Capacity() - lambda
	pw := q.ErlangC(lambda)
	lo, hi := 0.0, (1/mu+pw/theta)*50
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if refTail(pw, mu, theta, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestResponsePercentileMatchesFullBisection checks the early-exit
// bisection against the 80-step reference on a seeded grid: 1 to 64
// servers, utilizations from light to a hair under saturation, the
// degenerate μ≈θ loads (λ = (c−1)μ, and a relative nudge either side
// of the 1e-9 switch), and the 50th, 95th and 99.9th percentiles.
func TestResponsePercentileMatchesFullBisection(t *testing.T) {
	rng := stats.NewRNG(11)
	ps := []float64{50, 95, 99.9}
	checked := 0
	check := func(q Queue, lambda float64) {
		for _, p := range ps {
			got, want := q.ResponsePercentile(lambda, p), refPercentile(q, lambda, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v λ=%v p%v: %v, 80-step reference %v", q, lambda, p, got, want)
			}
			checked++
		}
	}
	for c := 1; c <= 64; c++ {
		for k := 0; k < 6; k++ {
			q := Queue{Servers: c, ServiceRate: 5 * math.Pow(1e4, rng.Float64())}
			for _, rho := range []float64{0.01, 0.3, 0.7, 0.9, 0.99, 0.9999, 1 - 1e-9, rng.Float64()} {
				check(q, rho*q.Capacity())
			}
			if c > 1 {
				lambda := float64(c-1) * q.ServiceRate
				for _, eps := range []float64{0, 1e-12, -1e-12, 2e-9, -2e-9} {
					check(q, lambda*(1+eps))
				}
			}
		}
	}
	t.Logf("%d percentiles bit-equal to the 80-step bisection", checked)
}
