package main

import (
	"fmt"
	"strings"
	"time"

	"clite/internal/fleet"
	"clite/internal/telemetry"
)

// fleetPassSize is the number of fleet runs in the first pass, each on
// its own seed derived from the workload seed: per-seed cost varies,
// so one seed is not a workload. Forty runs (about 5 s on the 2-core
// reference host) put the tail at p75; at p90 (a 100-run pass) one
// slow stretch of the shared host moved the tail by up to 90%.
const fleetPassSize = 40

// fleetOptions is the ROADMAP's FleetPlace shape: 1,024 nodes in
// 64-node cells, 30 simulated seconds of diurnal traffic drawn from
// the default menu.
func fleetOptions(cfg config, seed int64, shards int) fleet.Options {
	o := fleet.Options{Nodes: 1024, CellNodes: 64, Shards: shards, Seed: seed, Duration: 30}
	if cfg.tiny {
		o.Nodes, o.CellNodes, o.Duration = 128, 32, 4
	}
	return o
}

// fleetRun is one timed Fleet.Run.
type fleetRun struct {
	setup cost
	run   cost
	alloc uint64
	sum   fleet.Summary
	// phases is filled on traced runs only.
	phases phaseClock
}

// digest hashes the committed decision log, the fleet's byte-identity
// contract.
func (r *fleetRun) digest() string {
	var b strings.Builder
	for _, d := range r.sum.Decisions {
		fmt.Fprintf(&b, "%d|%g|%s|%g|%d|%d|%d|%t\n", d.Job, d.At, d.Workload, d.Load, d.Cell, d.Node, d.Attempt, d.QoSOK)
	}
	return digest(b.String())
}

// conserved reports Arrivals == Placements + Rejections + Lost.
func (r *fleetRun) conserved() bool {
	s := r.sum
	return s.Arrivals == s.Placements+s.Rejections+s.Lost
}

func runFleetOnce(opts fleet.Options, traced bool) (*fleetRun, error) {
	var clock phaseClock
	if traced {
		opts.Trace = telemetry.NewTracer()
		opts.Trace.SetTap(clock.tap)
	}
	t0 := now()
	f, err := fleet.New(opts)
	if err != nil {
		return nil, fmt.Errorf("building fleet seed %d: %w", opts.Seed, err)
	}
	r := &fleetRun{setup: t0.since()}
	a0 := allocated()
	clock.start()
	start := now()
	r.sum, err = f.Run()
	r.run = start.since()
	r.alloc = allocated() - a0
	if err != nil {
		return nil, fmt.Errorf("running fleet seed %d: %w", opts.Seed, err)
	}
	r.phases = clock
	return r, nil
}

func runFleet(cfg config) (*report, error) {
	size := fleetPassSize
	if cfg.tiny {
		size = 2
	}
	seedOf := func(i int) int64 { return derive(cfg.seed, streamFleet, uint64(i)) }
	rep := &report{Correct: true}
	if cfg.trace {
		return rep, fleetTraced(cfg, size, seedOf, rep)
	}

	var e endToEnd
	var first *fleetRun
	start := time.Now()
	for i := 0; i < size || !deadline(cfg, start); i++ {
		r, err := runFleetOnce(fleetOptions(cfg, seedOf(i), cfg.procs), false)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = r
		}
		rep.Attempted++
		e.op(r.run)
		e.work += float64(r.sum.Placements)
		e.workCost = e.workCost.add(r.run)
		e.setupCPU = append(e.setupCPU, r.setup.cpu.Seconds())
		if cfg.tamper == "fleet.conservation" {
			r.sum.Lost++
		}
		if !r.conserved() {
			s := r.sum
			rep.fail(fmt.Sprintf("fleet run %d", i), "seed %d: %d arrivals != %d placements + %d rejections + %d lost",
				seedOf(i), s.Arrivals, s.Placements, s.Rejections, s.Lost)
		}
		if i >= size {
			continue
		}
		s := r.sum
		e.firstOps++
		e.requested += s.Arrivals
		e.admitted += s.Placements
		e.decisions += s.Arrivals
		e.windows += float64(s.Cluster.BOIterations + s.Cluster.VerifyWindows)
		e.allocOps++
		e.allocMB += float64(r.alloc) / 1e6
		for _, d := range s.Decisions {
			e.qosN++
			if d.QoSOK {
				e.qosOK++
			}
		}
	}

	// The shard count is a pure concurrency knob: an untimed
	// single-shard replay of the first seed must commit the same
	// decision log.
	replay, err := runFleetOnce(fleetOptions(cfg, seedOf(0), 1), false)
	if err != nil {
		return nil, err
	}
	want := first.digest()
	if cfg.tamper == "fleet.digest" {
		want = "tampered"
	}
	if replay.digest() != want {
		rep.fail("fleet run 0", "seed %d: decisions at %d shards differ from the 1-shard replay", seedOf(0), cfg.procs)
	}

	e.fill(rep)
	rep.note("fleet_placements_per_s %.1f 1/s wall, %.1f 1/s CPU; fleet_admit_frac %.4f frac; fleet_qos_ok_frac %.4f frac; fleet_alloc_mb %.2f MB (first pass of %d fleet runs)",
		e.work/e.workCost.wall.Seconds(), e.work/e.workCost.cpu.Seconds(), ratio(e.admitted, e.requested), ratio(e.qosOK, e.qosN), e.allocMB/float64(e.allocOps), e.allocOps)
	return rep, nil
}

// fleetTraced runs the first pass untraced, then traced under the CPU
// profiler, and reports the per-layer metrics.
func fleetTraced(cfg config, size int, seedOf func(int) int64, rep *report) error {
	var plain, traced []*fleetRun
	var plainCPU, tracedCPU time.Duration
	for i := 0; i < size; i++ {
		r, err := runFleetOnce(fleetOptions(cfg, seedOf(i), cfg.procs), false)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		plainCPU += r.run.cpu
	}
	fold, err := profiled(cfg, func() error {
		for i := 0; i < size; i++ {
			r, err := runFleetOnce(fleetOptions(cfg, seedOf(i), cfg.procs), true)
			if err != nil {
				return err
			}
			traced = append(traced, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.Attempted = len(plain) + len(traced)

	var a, b []string
	var wall, drain, place, barrier time.Duration
	var arrivals int
	var tot fleet.Summary
	for i := range traced {
		p, t := plain[i], traced[i]
		op := fmt.Sprintf("fleet run %d", i)
		a, b = append(a, p.digest()), append(b, t.digest())
		for j, r := range [2]*fleetRun{p, t} {
			if !r.conserved() {
				rep.fail(passNames[j]+" "+op, "seed %d: arrivals not conserved", seedOf(i))
			}
		}
		wall += t.run.wall
		tracedCPU += t.run.cpu
		drain += t.phases.drain
		place += t.phases.place
		barrier += t.phases.barrier
		s := t.sum
		arrivals += s.Arrivals
		tot.Retries += s.Retries
		tot.CacheEntries += s.CacheEntries
		tot.Cluster = addStats(tot.Cluster, s.Cluster)
		phases := t.phases.drain + t.phases.place + t.phases.barrier
		if cfg.tamper == "fleet.layer_sum" {
			phases /= 2
		}
		if pct, ok := layerSum(phases, t.run.wall); !ok {
			rep.fail("traced "+op, "drain+place+barrier cover %.1f%% of its wall time", pct)
		}
	}
	if cfg.tamper == "fleet.trace_digest" {
		b[0] = "tampered"
	}
	compareDigests(rep, a, b, func(i int) string { return fmt.Sprintf("traced fleet run %d", i) })

	n := float64(len(traced))
	c := tot.Cluster
	vals := layerValues{
		"fleet.drain_ms":            ms(drain) / n,
		"fleet.place_ms":            ms(place) / n,
		"fleet.barrier_ms":          ms(barrier) / n,
		"layer_sum_pct":             100 * float64(drain+place+barrier) / float64(wall),
		"fleet.retries":             float64(tot.Retries) / n,
		"profile.entries":           float64(tot.CacheEntries) / n,
		"cluster.cache_near_hits":   float64(c.CacheNearHits) / n,
		"cluster.prefilter_rejects": float64(c.PrefilterRejects) / n,
		"cluster.screens":           float64(c.Screens) / n,
		"cluster.warm_screens":      float64(c.WarmScreens) / n,
		"cluster.bo_iterations":     float64(c.BOIterations) / n,
		"cluster.verify_windows":    float64(c.VerifyWindows) / n,
	}
	clusterRates(vals, c, arrivals)
	setLayers(rep, vals, fold, plainCPU, tracedCPU)
	rep.note("per-run means over %d traced fleet runs; per-arrival rates over %d arrivals", len(traced), arrivals)
	return nil
}
