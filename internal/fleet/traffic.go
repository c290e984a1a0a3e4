package fleet

import (
	"fmt"
	"math"

	"clite/internal/stats"
	"clite/internal/workload"
)

// Shape names a deterministic traffic shape for the arrival stream.
// The shapes stand in for the load millions of users put on a real
// warehouse front door: a diurnal cycle, bursty on/off flash crowds,
// and heavy-tailed renewal traffic whose quiet stretches and pile-ups
// both dwarf the Poisson prediction.
type Shape string

const (
	// ShapeDiurnal modulates a Poisson stream with a sinusoidal
	// day/night cycle (non-homogeneous Poisson via thinning).
	ShapeDiurnal Shape = "diurnal"
	// ShapeBursty alternates exponential on/off phases: bursts arrive
	// at BurstFactor times the base rate, gaps at a trickle.
	ShapeBursty Shape = "bursty"
	// ShapeHeavyTail draws bounded-Pareto interarrival gaps and
	// service times (α = 1.5), the instantaneous-demand regime where
	// mean-based planning fails.
	ShapeHeavyTail Shape = "heavytail"
)

// JobSpec is one entry of the traffic menu: a workload, its offered
// load (0 for BG jobs), and a draw weight.
type JobSpec struct {
	Workload string
	Load     float64
	Weight   int
}

// Traffic configures the arrival stream. The zero value is filled
// with defaults by (Traffic).withDefaults.
type Traffic struct {
	// Shape selects the arrival process (default ShapeDiurnal).
	Shape Shape
	// Rate is the mean arrival rate in jobs per simulated second
	// (default Nodes/64 — roughly one arrival per cell per second).
	Rate float64
	// MeanDuration is the mean service time in simulated seconds
	// (default 90).
	MeanDuration float64
	// Menu is the weighted job menu (default: the Table 3 staples at
	// cache-friendly quantized loads).
	Menu []JobSpec
	// Period is the diurnal cycle length in simulated seconds
	// (default 240).
	Period float64
	// Amplitude is the diurnal swing as a fraction of Rate, in [0,1)
	// (default 0.8).
	Amplitude float64
	// BurstFactor is the bursty shape's on-phase rate multiplier
	// (default 4).
	BurstFactor float64
	// BurstLen and GapLen are the bursty shape's mean phase lengths in
	// simulated seconds (defaults 10 and 30).
	BurstLen, GapLen float64
}

// DefaultMenu is the traffic menu used when none is given: the
// paper's staple LC jobs at low quantized loads (so the profile cache
// sees the same mixes over and over, the warehouse steady state) plus
// the PARSEC background fillers.
func DefaultMenu() []JobSpec {
	return []JobSpec{
		{Workload: "memcached", Load: 0.2, Weight: 3},
		{Workload: "img-dnn", Load: 0.2, Weight: 2},
		{Workload: "memcached", Load: 0.4, Weight: 1},
		{Workload: "xapian", Load: 0.2, Weight: 1},
		{Workload: "swaptions", Weight: 3},
		{Workload: "streamcluster", Weight: 2},
		{Workload: "blackscholes", Weight: 1},
	}
}

func (t Traffic) withDefaults(nodes int) Traffic {
	if t.Shape == "" {
		t.Shape = ShapeDiurnal
	}
	if t.Rate <= 0 {
		t.Rate = float64(nodes) / 64
	}
	if t.MeanDuration <= 0 {
		t.MeanDuration = 90
	}
	if len(t.Menu) == 0 {
		t.Menu = DefaultMenu()
	}
	if t.Period <= 0 {
		t.Period = 240
	}
	if t.Amplitude <= 0 || t.Amplitude >= 1 {
		t.Amplitude = 0.8
	}
	if t.BurstFactor <= 1 {
		t.BurstFactor = 4
	}
	if t.BurstLen <= 0 {
		t.BurstLen = 10
	}
	if t.GapLen <= 0 {
		t.GapLen = 30
	}
	return t
}

func (t Traffic) validate() error {
	switch t.Shape {
	case ShapeDiurnal, ShapeBursty, ShapeHeavyTail:
	default:
		return fmt.Errorf("fleet: unknown traffic shape %q (want %s, %s or %s)",
			t.Shape, ShapeDiurnal, ShapeBursty, ShapeHeavyTail)
	}
	known := map[string]bool{}
	for _, p := range workload.All() {
		known[p.Name] = true
	}
	total := 0
	for _, j := range t.Menu {
		if j.Weight < 0 {
			return fmt.Errorf("fleet: negative menu weight for %s", j.Workload)
		}
		// The same bound cluster.Place enforces, checked here so a bad
		// menu fails New instead of aborting Run mid-simulation.
		if !(j.Load >= 0 && j.Load <= 1.5) {
			return fmt.Errorf("fleet: menu load %v for %s out of range [0, 1.5]", j.Load, j.Workload)
		}
		if !known[j.Workload] {
			return fmt.Errorf("fleet: unknown workload %q in traffic menu", j.Workload)
		}
		total += j.Weight
	}
	if total <= 0 {
		return fmt.Errorf("fleet: traffic menu has no positive weights")
	}
	return nil
}

// arrival is one generated job arrival.
type arrival struct {
	at       float64
	workload string
	load     float64
	duration float64
}

// generator streams arrivals one at a time — the fleet never
// materializes a whole trace up front, so 10k-node runs hold only the
// event horizon in memory. All entropy comes from streams split off
// one seed, so a seeded generator replays the same arrival sequence
// whatever consumes it.
type generator struct {
	cfg         Traffic
	gaps        *stats.RNG // interarrival stream
	picks       *stats.RNG // menu stream
	durs        *stats.RNG // service-time stream
	totalWeight int
	t           float64
	// bursty phase state
	inBurst  bool
	phaseEnd float64
}

func newGenerator(cfg Traffic, seed int64) *generator {
	root := stats.NewRNG(seed)
	g := &generator{
		cfg:   cfg,
		gaps:  root.Split(1),
		picks: root.Split(2),
		durs:  root.Split(3),
	}
	for _, j := range cfg.Menu {
		g.totalWeight += j.Weight
	}
	if cfg.Shape == ShapeBursty {
		g.inBurst = false
		g.phaseEnd = g.gaps.Exponential(cfg.GapLen)
	}
	return g
}

// next returns the next arrival of the stream.
func (g *generator) next() arrival {
	switch g.cfg.Shape {
	case ShapeBursty:
		g.t += g.burstyGap()
	case ShapeHeavyTail:
		g.t += boundedPareto(g.gaps, 1/g.cfg.Rate)
	default: // diurnal: non-homogeneous Poisson by thinning
		g.t += g.diurnalGap()
	}
	a := arrival{at: g.t}
	a.workload, a.load = g.pick()
	a.duration = g.duration()
	return a
}

// diurnalGap advances a thinned Poisson stream under the sinusoidal
// rate λ(t) = Rate·(1 + Amplitude·sin(2πt/Period)).
func (g *generator) diurnalGap() float64 {
	lambdaMax := g.cfg.Rate * (1 + g.cfg.Amplitude)
	t := g.t
	for {
		t += g.gaps.Exponential(1 / lambdaMax)
		lambda := g.cfg.Rate * (1 + g.cfg.Amplitude*math.Sin(2*math.Pi*t/g.cfg.Period))
		if g.gaps.Float64()*lambdaMax <= lambda {
			return t - g.t
		}
	}
}

// burstyGap advances the on/off modulated stream. Phases have
// exponential lengths; the exponential gap's memorylessness makes
// redrawing at a phase boundary distribution-correct.
func (g *generator) burstyGap() float64 {
	start := g.t
	t := g.t
	for {
		rate := g.cfg.Rate * g.cfg.BurstFactor
		if !g.inBurst {
			rate = g.cfg.Rate / 4
		}
		gap := g.gaps.Exponential(1 / rate)
		if t+gap < g.phaseEnd {
			return t + gap - start
		}
		t = g.phaseEnd
		g.inBurst = !g.inBurst
		mean := g.cfg.GapLen
		if g.inBurst {
			mean = g.cfg.BurstLen
		}
		g.phaseEnd = t + g.gaps.Exponential(mean)
	}
}

// boundedPareto draws a Pareto(α=1.5) variate with the given mean,
// capped at 50× the mean so one draw cannot freeze the stream.
func boundedPareto(rng *stats.RNG, mean float64) float64 {
	const alpha = 1.5
	xm := mean * (alpha - 1) / alpha
	u := 1 - rng.Float64() // (0, 1]
	v := xm * math.Pow(u, -1/alpha)
	if limit := 50 * mean; v > limit {
		v = limit
	}
	return v
}

// pick draws one menu entry by weight.
func (g *generator) pick() (string, float64) {
	n := g.picks.Intn(g.totalWeight)
	for _, j := range g.cfg.Menu {
		n -= j.Weight
		if n < 0 {
			return j.Workload, j.Load
		}
	}
	last := g.cfg.Menu[len(g.cfg.Menu)-1]
	return last.Workload, last.Load
}

// duration draws one service time: exponential for diurnal/bursty
// traffic, bounded Pareto for the heavy-tailed shape.
func (g *generator) duration() float64 {
	if g.cfg.Shape == ShapeHeavyTail {
		return boundedPareto(g.durs, g.cfg.MeanDuration)
	}
	return g.durs.Exponential(g.cfg.MeanDuration)
}
