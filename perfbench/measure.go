package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// stamp is a reading of both clocks the benchmark keeps: wall time,
// and the process's CPU time (all threads, user + system).
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// cost is what an op took on each clock.
type cost struct {
	wall, cpu time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (s stamp) to(end stamp) cost {
	return cost{wall: end.wall.Sub(s.wall), cpu: end.cpu - s.cpu}
}

func (s stamp) since() cost { return s.to(now()) }

func (c cost) add(d cost) cost { return cost{wall: c.wall + d.wall, cpu: c.cpu + d.cpu} }

// endToEnd accumulates the user-facing metrics every workload reports
// with tracing off. Each workload maps its own op onto the shared
// names (README.md has the table):
//
//	op        controller: one observation window's turnaround;
//	          fleet: one Fleet.Run; admission: one Scheduler.Place
//	work      controller: windows; fleet: placements; admission:
//	          Place calls
//	decision  controller: a Run; fleet: an arrival; admission: a Place
//
// Gated timings are process CPU time: on the shared reference host
// wall-clock time of identical runs swings by up to 2x with the
// hypervisor's steal, while CPU time stays within a few percent.
// Wall-clock equivalents are printed above the result line.
//
// Timing and set-up cover every op the run completed; quality,
// windows and allocation cover the first pass only, so the quality
// figures are a pure function of the seed.
type endToEnd struct {
	opCPU, opWall []float64 // ms per timed op
	firstOps      int       // how many of them the first pass timed
	work          float64   // units of work the timed ops completed
	workCost      cost      // what the timed ops took

	// First pass only.
	qosOK, qosN         int     // placements meeting every LC QoS target
	admitted, requested int     // requests admitted
	windows             float64 // observation windows spent
	decisions           int
	allocMB             float64 // MB allocated by the timed ops
	allocOps            int

	setupCPU []float64 // s, every set-up the run did
}

// op records one timed op.
func (e *endToEnd) op(c cost) {
	e.opCPU = append(e.opCPU, ms(c.cpu))
	e.opWall = append(e.opWall, ms(c.wall))
}

func (e *endToEnd) fill(r *report) {
	tv, tp := tail(e.opCPU, e.firstOps)
	r.set("op_cpu_ms_p50", median(e.opCPU), "ms")
	r.set("op_cpu_ms_tail", tv, "ms")
	r.set("work_per_cpu_s", e.work/e.workCost.cpu.Seconds(), "1/s")
	r.set("qos_ok_frac", ratio(e.qosOK, e.qosN), "frac")
	r.set("admit_frac", ratio(e.admitted, e.requested), "frac")
	r.set("windows_per_decision", e.windows/float64(e.decisions), "count")
	r.set("alloc_mb_per_op", e.allocMB/float64(e.allocOps), "MB")
	r.set("setup_s", median(e.setupCPU), "s")
	wv, _ := tail(e.opWall, e.firstOps)
	r.note("tail percentile p%.1f of %d timed ops (%d in the first pass)", tp, len(e.opCPU), e.firstOps)
	r.note("wall clock, not gated: op_ms_p50 %.4f ms; op_ms_tail %.4f ms; work_per_s %.4f 1/s",
		median(e.opWall), wv, e.work/e.workCost.wall.Seconds())
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the tail percentile of a workload whose
// first pass holds k ops, and that percentile: the highest percentile
// with at least ten of the first pass's samples above it,
// 100*(k-10)/k. Every run completes its first pass, so the percentile
// is fixed per workload and every run has at least ten samples above
// it however many extra ops it timed. With k <= 10 no percentile
// qualifies; the maximum is returned as p100.
func tail(xs []float64, k int) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if k <= 10 || n <= 10 {
		return s[n-1], 100
	}
	idx := max((k-10)*n/k-1, 0)
	return s[idx], 100 * float64(k-10) / float64(k)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// digest hashes one decision's canonical description.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// passNames name a traced run's two passes in failure reports.
var passNames = [2]string{"untraced", "traced"}

// compareDigests fails every traced op whose digest differs from the
// untraced pass's, or that only one pass made; name(i) names the i-th
// traced op.
func compareDigests(rep *report, plain, traced []string, name func(i int) string) {
	for i := 0; i < max(len(plain), len(traced)); i++ {
		if i >= len(plain) || i >= len(traced) || plain[i] != traced[i] {
			rep.fail(name(i), "differs between the untraced and traced passes")
		}
	}
}

// derive returns the i-th seed of a named stream under the workload
// seed (splitmix64 finalizer), so every input of a run is a pure
// function of -seed.
func derive(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + i + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}
