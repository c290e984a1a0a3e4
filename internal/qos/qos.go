// Package qos implements the paper's Fig. 6 methodology for deriving
// QoS targets: each latency-critical workload is run in isolation
// across a sweep of offered loads, producing a QPS-vs-p95 curve; the
// 95th-percentile QoS tail-latency target is the knee of that curve
// and the corresponding QPS is the workload's maximum load. All load
// fractions elsewhere in the system ("memcached at 40%") are fractions
// of this calibrated maximum.
package qos

import (
	"fmt"
	"math"

	"clite/internal/resource"
	"clite/internal/workload"
)

// Point is one sample of the isolation load sweep.
type Point struct {
	QPS float64
	P95 float64 // seconds
}

// Calibration is the result of profiling one LC workload in isolation.
type Calibration struct {
	Workload  string
	MaxQPS    float64 // QPS at the knee — the workload's "100% load"
	QoSTarget float64 // p95 seconds at the knee
	Curve     []Point // the full sweep, for Fig. 6 reproduction
}

// window is the observation window used for the analytic curve; it
// only matters for the saturated region of the sweep.
const window = 2.0

// sweepPoints is the resolution of the load sweep.
const sweepPoints = 48

// Calibrate profiles the workload on the full machine. It is
// deterministic (no measurement noise): this step happens once per
// workload, offline, exactly as the paper does before any co-location
// experiments, and is "not specific to the co-location method being
// evaluated" (Sec. 5.1).
func Calibrate(p *workload.Profile, t resource.Topology) (Calibration, error) {
	if p.Class != workload.LatencyCritical {
		return Calibration{}, fmt.Errorf("qos: %s is not latency-critical", p.Name)
	}
	full := workload.FullMachine(t)
	capacity := saturationQPS(p, full)
	cal := Calibration{Workload: p.Name}
	for i := 1; i <= sweepPoints; i++ {
		lambda := capacity * float64(i) / float64(sweepPoints)
		cal.Curve = append(cal.Curve, Point{QPS: lambda, P95: p.P95(full, lambda, window)})
	}
	knee := kneeIndex(cal.Curve)
	cal.MaxQPS = cal.Curve[knee].QPS
	cal.QoSTarget = cal.Curve[knee].P95
	return cal, nil
}

// saturationQPS finds the offered load at which the workload's queue
// saturates on the given allocation, by bisection on utilization.
func saturationQPS(p *workload.Profile, alloc workload.Alloc) float64 {
	lo, hi := 1.0, 1.0
	for p.Queue(alloc, hi).Utilization(hi) < 1 && hi < 1e9 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if p.Queue(alloc, mid).Utilization(mid) < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// kneeLatencyMultiple operationalizes "the knee of the curve": the
// highest load whose p95 is still within this multiple of the
// low-load p95. For M/M/c-shaped curves this lands near 80%
// utilization — the flat-to-exploding transition the paper's Fig. 6
// knees sit on — and leaves the post-knee headroom that makes
// high-load co-locations borderline rather than trivially impossible.
const kneeLatencyMultiple = 4.0

func kneeIndex(curve []Point) int {
	n := len(curve)
	if n < 3 {
		return n - 1
	}
	idle := curve[0].P95
	knee := -1
	for i, pt := range curve {
		if pt.P95 <= kneeLatencyMultiple*idle {
			knee = i
		}
	}
	if knee > 0 {
		return knee
	}
	return chordKneeIndex(curve)
}

// chordKneeIndex is the Kneedle-style fallback: the point with the
// maximum vertical distance below the chord between the curve's
// endpoints, in normalized coordinates. It is used when the curve is
// already steep at its lowest sampled load.
func chordKneeIndex(curve []Point) int {
	n := len(curve)
	x0, xn := curve[0].QPS, curve[n-1].QPS
	y0, yn := curve[0].P95, curve[n-1].P95
	if xn == x0 || yn == y0 {
		return n - 1
	}
	best, bestGap := 0, math.Inf(-1)
	for i, pt := range curve {
		xNorm := (pt.QPS - x0) / (xn - x0)
		yNorm := (pt.P95 - y0) / (yn - y0)
		if gap := xNorm - yNorm; gap > bestGap {
			bestGap = gap
			best = i
		}
	}
	return best
}
