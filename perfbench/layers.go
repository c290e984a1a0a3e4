package main

import (
	"time"

	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/telemetry"
)

// layerSumTolerance is how far a traced op's layer times may sum from
// its wall time before the layer-sum check fails.
const layerSumTolerance = 0.10

// timedObserver wraps the machine of every controller decision. It
// stamps the end of every observation window, which gives the
// controller's per-window turnaround (the compute it adds to each
// window), and sums the wall time spent inside Observe, the traced
// run's server layer. The embedded machine supplies the rest of the
// contract, SetTelemetry included, so core.New still attaches a
// tracer to it.
type timedObserver struct {
	*server.Machine
	ends []stamp
	busy time.Duration
}

func (o *timedObserver) Observe(cfg resource.Config) (server.Observation, error) {
	start := time.Now()
	obs, err := o.Machine.Observe(cfg)
	end := now()
	o.busy += end.wall.Sub(start)
	o.ends = append(o.ends, end)
	return obs, err
}

// turnarounds returns each window's cost since the previous window
// ended (the first since start).
func (o *timedObserver) turnarounds(start stamp) []cost {
	out := make([]cost, len(o.ends))
	prev := start
	for i, end := range o.ends {
		out[i] = prev.to(end)
		prev = end
	}
	return out
}

// iterClock stamps the wall clock at every BOIteration event a
// tracer's tap sees. Stamps live in the benchmark, never in the
// deterministic trace.
type iterClock struct {
	stamps []time.Time
}

func (c *iterClock) tap(ev telemetry.Event) {
	if ev.Kind == telemetry.KindBOIteration {
		c.stamps = append(c.stamps, time.Now())
	}
}

// phaseClock splits each fleet epoch into drain, place and barrier by
// event boundaries seen on the fleet tracer's tap: drain runs up to
// the epoch's last arrival or departure event, place up to the first
// cell event merged at the barrier, barrier up to the FleetEpoch event.
type phaseClock struct {
	epochStart  time.Time
	drainEnd    time.Time
	firstMerged time.Time
	drained     bool
	merged      bool

	drain, place, barrier time.Duration
}

func (c *phaseClock) start() {
	*c = phaseClock{epochStart: time.Now(), drain: c.drain, place: c.place, barrier: c.barrier}
}

func (c *phaseClock) tap(ev telemetry.Event) {
	now := time.Now()
	switch ev.Kind {
	case telemetry.KindJobArrival, telemetry.KindJobDeparture:
		c.drainEnd, c.drained = now, true
	case telemetry.KindFleetEpoch:
		drainEnd := c.epochStart
		if c.drained {
			drainEnd = c.drainEnd
		}
		placeEnd := now
		if c.merged {
			placeEnd = c.firstMerged
		}
		c.drain += drainEnd.Sub(c.epochStart)
		c.place += placeEnd.Sub(drainEnd)
		c.barrier += now.Sub(placeEnd)
		c.epochStart, c.drained, c.merged = now, false, false
	default:
		if !c.merged {
			c.firstMerged, c.merged = now, true
		}
	}
}

// layerSum checks that layer times summing to sum account for wall
// within layerSumTolerance, returning the ratio in percent.
func layerSum(sum, wall time.Duration) (pct float64, ok bool) {
	if wall <= 0 {
		return 0, false
	}
	pct = 100 * float64(sum) / float64(wall)
	return pct, pct >= 100*(1-layerSumTolerance) && pct <= 100*(1+layerSumTolerance)
}

// layerUnits is the per-layer metric catalogue. Every traced run
// reports every entry; a layer the workload never runs reads 0.
var layerUnits = map[string]string{
	"server.observe_calls":           "count",
	"server.observe_ms":              "ms",
	"bo.iterations":                  "count",
	"bo.acq_ms":                      "ms",
	"bo.iter_ms_p50":                 "ms",
	"bo.fit_other_ms":                "ms",
	"bo.collision_rate":              "frac",
	"gp.fit_appends":                 "count",
	"gp.fit_refits":                  "count",
	"layer_sum_pct":                  "%",
	"fleet.drain_ms":                 "ms",
	"fleet.place_ms":                 "ms",
	"fleet.barrier_ms":               "ms",
	"fleet.retries":                  "count",
	"profile.entries":                "count",
	"cluster.candidates_per_arrival": "count",
	"cluster.cache_hit_rate":         "frac",
	"cluster.cache_near_hits":        "count",
	"cluster.prefilter_rejects":      "count",
	"cluster.screens":                "count",
	"cluster.warm_screens":           "count",
	"cluster.bo_iterations":          "count",
	"cluster.verify_windows":         "count",
	"cluster.screens_per_place":      "count",
	"cluster.bo_iters_per_place":     "count",
	"cluster.place_hit_ms_p50":       "ms",
	"cluster.place_screen_ms_p50":    "ms",
	"cluster.remove_ms_p50":          "ms",
	"trace_overhead_pct":             "%",
	"cpu.samples":                    "count",
}

func init() {
	for _, m := range cpuModules {
		layerUnits["cpu."+m+"_pct"] = "%"
	}
	for _, h := range cpuHotspots {
		layerUnits["cpu."+h.metric+"_cum_pct"] = "%"
	}
}

// layerValues are one traced run's per-layer measurements by name.
type layerValues map[string]float64

// setLayers reports every catalogued per-layer metric: the workload's
// own values, the folded CPU profile, and the tracing overhead: the
// traced pass's op CPU time over the untraced pass's.
func setLayers(rep *report, vals layerValues, fold *cpuFold, plain, traced time.Duration) {
	for name, unit := range layerUnits {
		rep.set(name, vals[name], unit)
	}
	for name := range vals {
		if _, ok := layerUnits[name]; !ok {
			panic("perfbench: per-layer metric " + name + " is not catalogued")
		}
	}
	if fold.total > 0 {
		for _, m := range cpuModules {
			rep.set("cpu."+m+"_pct", 100*float64(fold.self[m])/float64(fold.total), "%")
		}
		for _, h := range cpuHotspots {
			rep.set("cpu."+h.metric+"_cum_pct", 100*float64(fold.cum[h.fn])/float64(fold.total), "%")
		}
	}
	rep.set("cpu.samples", float64(fold.total), "count")
	rep.set("trace_overhead_pct", 100*(float64(traced)/float64(plain)-1), "%")
}
