package main

import (
	"fmt"
	"math/rand"
	"time"

	"clite/internal/bo"
	"clite/internal/core"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/telemetry"
)

// bgWorkloads are the Table 3 background workloads.
var bgWorkloads = []string{"blackscholes", "canneal", "fluidanimate", "freqmine", "streamcluster", "swaptions"}

// LC loads are drawn from [loadLo, loadHi), fractions of each
// workload's calibrated maximum.
const loadLo, loadHi = 0.1, 0.4

// Seed streams under the workload seed.
const (
	streamPass uint64 = iota + 1
	streamMachine
	streamBO
	streamFleet
	streamAdmission
)

// controllerCatalogue is the pass's fixed, balanced set of LC job
// combinations: eight two-LC and four three-LC mixes, each Table 3 LC
// workload in five or six of them. The seed draws the loads, the BG
// jobs' order and every machine and search seed; the catalogue keeps
// the mix shapes fixed, so a pass of twelve decisions varies little
// from seed to seed. About 25 s of decisions on the 2-core reference
// host.
var controllerCatalogue = [][]string{
	{"img-dnn", "masstree"},
	{"memcached", "specjbb"},
	{"masstree", "xapian", "memcached"},
	{"xapian", "img-dnn"},
	{"masstree", "memcached"},
	{"img-dnn", "specjbb", "xapian"},
	{"specjbb", "xapian"},
	{"img-dnn", "memcached"},
	{"masstree", "specjbb", "memcached"},
	{"masstree", "xapian"},
	{"specjbb", "img-dnn"},
	{"xapian", "memcached", "img-dnn"},
}

// mix is the input of one controller decision.
type mix struct {
	lc          []lcJob
	bg          string
	machineSeed int64
	boSeed      int64
}

type lcJob struct {
	name string
	load float64
}

func (m mix) String() string {
	s := ""
	for _, j := range m.lc {
		s += fmt.Sprintf("%s@%.3f+", j.name, j.load)
	}
	return s + m.bg
}

// controllerPass returns pass p of the seeded decision stream, the
// first size mixes of the catalogue. The LC loads cover [loadLo,
// loadHi) in equal strata, one seeded draw per stratum; strata go to
// job slots in a fixed shuffled order, so every pass spans the same
// load range with the same hard and easy mixes.
func controllerPass(seed int64, p, size int) []mix {
	rng := rand.New(rand.NewSource(derive(seed, streamPass, uint64(p))))
	slots := 0
	for _, names := range controllerCatalogue[:size] {
		slots += len(names)
	}
	strata := rand.New(rand.NewSource(1)).Perm(slots)
	bgOrder := rng.Perm(len(bgWorkloads))
	mixes := make([]mix, size)
	s := 0
	for d, names := range controllerCatalogue[:size] {
		for _, name := range names {
			load := loadLo + (loadHi-loadLo)*(float64(strata[s])+rng.Float64())/float64(slots)
			mixes[d].lc = append(mixes[d].lc, lcJob{name: name, load: load})
			s++
		}
		idx := uint64(p*size + d)
		mixes[d].bg = bgWorkloads[bgOrder[d%len(bgWorkloads)]]
		mixes[d].machineSeed = derive(seed, streamMachine, idx)
		mixes[d].boSeed = derive(seed, streamBO, idx)
	}
	return mixes
}

// build places the mix on a fresh machine: the decision's set-up.
func (m mix) build() (*server.Machine, error) {
	mach := server.New(resource.Default(), server.DefaultSpec(), m.machineSeed)
	for _, j := range m.lc {
		if _, err := mach.AddLC(j.name, j.load); err != nil {
			return nil, err
		}
	}
	if _, err := mach.AddBG(m.bg); err != nil {
		return nil, err
	}
	return mach, nil
}

// decision is one timed Controller.Run.
type decision struct {
	setup cost
	run   cost
	alloc uint64
	res   core.Result
	// windows holds each observation window's turnaround: the cost
	// since the previous window ended, which is the controller's
	// compute for that window plus the (simulated) window itself.
	windows []cost
	observe time.Duration // wall time inside Machine.Observe
	// valid reports that Best passed Config.Validate.
	valid bool

	// Traced runs only.
	acq        time.Duration
	covered    time.Duration // Run start to the last BOIteration stamp
	iters      []time.Duration
	boIters    int64
	collisions int64
	fitAppends int64
	fitRefits  int64
}

func (d *decision) digest() string {
	return digest(fmt.Sprintf("%s|%d", d.res.Best.Key(), d.res.SamplesUsed))
}

// bgPerf is the isolation-normalized performance of the mix's BG job
// in the chosen partition.
func (d *decision) bgPerf(m mix) (float64, bool) {
	np := d.res.BestObs.NormPerf
	if len(np) != len(m.lc)+1 {
		return 0, false
	}
	return np[len(m.lc)], true
}

// decide runs one paper-default CLITE decision on the mix. Traced
// decisions also carry a tracer whose tap stamps BO iterations and a
// metrics registry.
func decide(cfg config, m mix, traced bool) (*decision, error) {
	t0 := now()
	mach, err := m.build()
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", m, err)
	}
	d := &decision{setup: t0.since()}
	opts := core.Options{BO: bo.Options{Seed: m.boSeed, Workers: cfg.procs}}
	timed := &timedObserver{Machine: mach}
	var clock iterClock
	var reg *telemetry.Registry
	if traced {
		opts.Trace = telemetry.NewTracer()
		opts.Trace.SetTap(clock.tap)
		reg = telemetry.NewRegistry()
		opts.Metrics = reg
	}
	ctrl := core.New(timed, opts)
	a0 := allocated()
	start := now()
	d.res, err = ctrl.Run()
	d.run = start.since()
	d.alloc = allocated() - a0
	if err != nil {
		return nil, fmt.Errorf("deciding %s: %w", m, err)
	}
	d.windows, d.observe = timed.turnarounds(start), timed.busy
	d.valid = d.res.Best.Validate(mach.Topology()) == nil
	if traced {
		d.acq = time.Duration(reg.Histogram("bo_acq_seconds", telemetry.LatencyBuckets()).Sum() * float64(time.Second))
		d.boIters = reg.Counter("bo_iterations_total").Value()
		d.collisions = reg.Counter("bo_seen_collisions_total").Value()
		d.fitAppends = reg.Counter("bo_fit_appends_total").Value()
		d.fitRefits = reg.Counter("bo_fit_refits_total").Value()
		if n := len(clock.stamps); n > 0 {
			d.covered = clock.stamps[n-1].Sub(start.wall)
			for i := 1; i < n; i++ {
				d.iters = append(d.iters, clock.stamps[i].Sub(clock.stamps[i-1]))
			}
		}
	}
	return d, nil
}

// runController measures decisions with tracing off. The timed op is
// one observation window's turnaround; a decision's latency is its
// windows' turnarounds summed, and is reported alongside (decide_s_*)
// but not gated: it is windows_per_decision times the per-window
// turnaround, and with a dozen decisions per run its seed-to-seed
// spread is too wide for any bound.
func runController(cfg config) (*report, error) {
	size := len(controllerCatalogue)
	if cfg.tiny {
		size = 2
	}
	pass0 := controllerPass(cfg.seed, 0, size)
	rep := &report{Correct: true}
	if cfg.trace {
		return rep, controllerTraced(cfg, pass0, rep)
	}

	var e endToEnd
	var decideS, bg []float64
	start := time.Now()
	for p := 0; p == 0 || !deadline(cfg, start); p++ {
		pass := pass0
		if p > 0 {
			pass = controllerPass(cfg.seed, p, size)
		}
		for i, m := range pass {
			if p > 0 && deadline(cfg, start) {
				break
			}
			d, err := decide(cfg, m, false)
			if err != nil {
				return nil, err
			}
			rep.Attempted++
			decideS = append(decideS, d.run.wall.Seconds())
			for _, w := range d.windows {
				e.op(w)
			}
			e.work += float64(len(d.windows))
			e.workCost = e.workCost.add(d.run)
			e.setupCPU = append(e.setupCPU, d.setup.cpu.Seconds())
			if !d.valid || cfg.tamper == "controller.validate" {
				rep.fail(fmt.Sprintf("decision %d.%d", p, i), "%s: best partition %s fails Config.Validate", m, d.res.Best.Key())
			}
			if p > 0 {
				continue
			}
			e.firstOps += len(d.windows)
			e.decisions++
			e.windows += float64(d.res.SamplesUsed)
			e.allocOps += len(d.windows)
			e.allocMB += float64(d.alloc) / 1e6
			e.qosN++
			if d.res.QoSMeetable {
				e.qosOK++
			}
			e.requested++
			if len(d.res.Infeasible) == 0 {
				e.admitted++
			}
			if v, ok := d.bgPerf(m); ok {
				bg = append(bg, v)
			}
			rep.note("decision %d %s: %.3f s, %d windows, qos met %t", i, m, d.run.wall.Seconds(), d.res.SamplesUsed, d.res.QoSMeetable)
		}
	}
	e.fill(rep)
	tv, tp := tail(decideS, size)
	rep.note("decide_s_p50 %.4f s; decide_s_tail %.4f s at p%.1f of %d decisions (%d in the first pass)",
		median(decideS), tv, tp, len(decideS), size)
	rep.note("converge_samples_mean %.2f count; qos_met_frac %.4f frac; bg_perf_mean %.4f frac (first pass)",
		e.windows/float64(e.decisions), ratio(e.qosOK, e.qosN), mean(bg))
	return rep, nil
}

// controllerTraced runs the first pass untraced, then traced under the
// CPU profiler, and reports the per-layer metrics.
func controllerTraced(cfg config, pass []mix, rep *report) error {
	var plain, traced []*decision
	var plainCPU, tracedCPU time.Duration
	for _, m := range pass {
		d, err := decide(cfg, m, false)
		if err != nil {
			return err
		}
		plain = append(plain, d)
		plainCPU += d.run.cpu
	}
	fold, err := profiled(cfg, func() error {
		for _, m := range pass {
			d, err := decide(cfg, m, true)
			if err != nil {
				return err
			}
			traced = append(traced, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.Attempted = len(plain) + len(traced)

	var a, b []string
	var wall, observe, acq, covered time.Duration
	var iters []float64
	var calls, boIters, collisions, appends, refits int64
	for i := range traced {
		p, t := plain[i], traced[i]
		op := fmt.Sprintf("decision %d", i)
		a, b = append(a, p.digest()), append(b, t.digest())
		for j, d := range [2]*decision{p, t} {
			if !d.valid {
				rep.fail(passNames[j]+" "+op, "best partition %s fails Config.Validate", d.res.Best.Key())
			}
		}
		wall += t.run.wall
		tracedCPU += t.run.cpu
		observe += t.observe
		acq += t.acq
		covered += t.covered
		calls += int64(len(t.windows))
		boIters += t.boIters
		collisions += t.collisions
		appends += t.fitAppends
		refits += t.fitRefits
		for _, it := range t.iters {
			iters = append(iters, ms(it))
		}
		sum := t.covered
		if cfg.tamper == "controller.layer_sum" {
			sum /= 2
		}
		if pct, ok := layerSum(sum, t.run.wall); !ok {
			rep.fail("traced "+op, "acquisition+observation+other cover %.1f%% of its wall time", pct)
		}
	}
	if cfg.tamper == "controller.digest" {
		b[0] = "tampered"
	}
	compareDigests(rep, a, b, func(i int) string { return fmt.Sprintf("traced decision %d", i) })

	n := float64(len(traced))
	setLayers(rep, layerValues{
		"server.observe_calls": float64(calls) / n,
		"server.observe_ms":    ms(observe) / n,
		"bo.iterations":        float64(boIters) / n,
		"bo.acq_ms":            ms(acq) / n,
		"bo.iter_ms_p50":       median(iters),
		"bo.fit_other_ms":      ms(covered-acq-observe) / n,
		"bo.collision_rate":    ratio(int(collisions), int(boIters)),
		"gp.fit_appends":       float64(appends) / n,
		"gp.fit_refits":        float64(refits) / n,
		"layer_sum_pct":        100 * float64(covered) / float64(wall),
	}, fold, plainCPU, tracedCPU)
	rep.note("per-decision means over %d traced decisions; bo.iter_ms_p50 over %d iterations", len(traced), len(iters))
	return nil
}
