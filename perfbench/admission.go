package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"clite/internal/cluster"
	"clite/internal/fleet"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/telemetry"
)

// The admission stream: one closed-loop client against an 8-node
// scheduler with a cold profile cache. Before each Place request one
// placed job departs with probability admissionDepart, and always
// once admissionCap jobs are live: about 1.25 jobs per node, well
// below the 4 per node past which every Place pays a multi-second
// screen, so the stream stays below saturation.
const (
	admissionNodes    = 8
	admissionRequests = 80 // Place requests per episode
	admissionCap      = 10
	admissionDepart   = 0.3
	// admissionPassSize episodes make one pass, about 25 s on the
	// 2-core reference host.
	admissionPassSize = 3
	// admissionSetups is how many times each episode sets up, keeping
	// the last scheduler: set-up takes about a millisecond, and a
	// handful of samples per episode steadies its median.
	admissionSetups = 5
)

// admissionOp is one timed Place or Remove call.
type admissionOp struct {
	remove bool
	req    cluster.Request
	node   int
	cost   cost
	alloc  uint64
	place  cluster.Placement
	err    error
	delta  cluster.Stats // scheduler counters this call added
	// snapshotOK reports that Snapshot() held placed − removed jobs
	// after the call.
	snapshotOK bool
}

func (o *admissionOp) refused() bool { return errors.Is(o.err, cluster.ErrUnplaceable) }

func (o *admissionOp) digest() string {
	if o.remove {
		return digest(fmt.Sprintf("R|%s|%g|%d|%v", o.req.Workload, o.req.Load, o.node, o.err))
	}
	return digest(fmt.Sprintf("P|%s|%g|%d|%v|%t|%s|%d", o.req.Workload, o.req.Load, o.place.Node, o.err,
		o.place.Result.QoSMeetable, o.place.Result.Best.Key(), o.place.Result.SamplesUsed))
}

// admissionEpisode is one scheduler's lifetime: set-up, then the
// request stream.
type admissionEpisode struct {
	setups []cost
	ops    []*admissionOp
	stats  cluster.Stats
	bgPerf []float64
}

// calibrated returns a calibration store holding every LC workload of
// the fleet menu, so the QoS calibration sweeps run in set-up rather
// than inside the first Place of each workload.
func calibrated() (*server.Calibrations, error) {
	cals := server.NewCalibrations()
	for _, j := range fleet.DefaultMenu() {
		if j.Load == 0 {
			continue
		}
		m := server.NewShared(resource.Default(), server.DefaultSpec(), 0, cals)
		if _, err := m.AddLC(j.Workload, j.Load); err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", j.Workload, err)
		}
	}
	return cals, nil
}

// deck deals requests from the fleet's default menu in weight
// proportion: each round holds every menu entry Weight times, shuffled,
// so an episode's request mix varies only in order, not in
// composition.
type deck struct {
	rng   *rand.Rand
	cards []cluster.Request
}

func (d *deck) next() cluster.Request {
	if len(d.cards) == 0 {
		for _, j := range fleet.DefaultMenu() {
			for w := 0; w < j.Weight; w++ {
				d.cards = append(d.cards, cluster.Request{Workload: j.Workload, Load: j.Load})
			}
		}
		d.rng.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// runEpisode streams one episode's requests. stop, when non-nil, ends
// the stream early (extra episodes past the first pass stop at the
// deadline). Traced episodes attach a tracer and a metrics registry.
func runEpisode(cfg config, seed int64, traced bool, stop func() bool) (*admissionEpisode, error) {
	ep := &admissionEpisode{}
	var sched *cluster.Scheduler
	for i := 0; i < admissionSetups; i++ {
		t0 := now()
		cals, err := calibrated()
		if err != nil {
			return nil, err
		}
		opts := cluster.Options{
			Nodes:              admissionNodes,
			Seed:               seed,
			ScreenWorkers:      cfg.procs,
			SharedCalibrations: cals,
		}
		if cfg.tiny {
			opts.Nodes = 4
		}
		if traced {
			opts.Trace = telemetry.NewTracer()
			opts.Metrics = telemetry.NewRegistry()
		}
		sched = cluster.New(opts)
		ep.setups = append(ep.setups, t0.since())
	}

	type live struct {
		node int
		req  cluster.Request
	}
	var placed []live
	removed, admitted := 0, 0
	rng := rand.New(rand.NewSource(seed))
	requests := admissionRequests
	menu := &deck{rng: rng}
	if cfg.tiny {
		requests = 8
	}
	call := func(op *admissionOp) {
		before := sched.Stats()
		a0 := allocated()
		start := now()
		if op.remove {
			op.err = sched.Remove(op.node, op.req)
		} else {
			op.place, op.err = sched.Place(op.req)
		}
		op.cost = start.since()
		op.alloc = allocated() - a0
		op.delta = subStats(sched.Stats(), before)
		if op.err == nil {
			if op.remove {
				removed++
			} else {
				admitted++
			}
		}
		jobs := 0
		for _, n := range sched.Snapshot() {
			jobs += len(n.Jobs)
		}
		op.snapshotOK = jobs == admitted-removed
		ep.ops = append(ep.ops, op)
	}
	for r := 0; r < requests; r++ {
		if stop != nil && stop() {
			break
		}
		if len(placed) >= admissionCap || (len(placed) > 0 && rng.Float64() < admissionDepart) {
			k := rng.Intn(len(placed))
			call(&admissionOp{remove: true, node: placed[k].node, req: placed[k].req})
			placed = append(placed[:k], placed[k+1:]...)
		}
		op := &admissionOp{req: menu.next()}
		call(op)
		if op.err == nil {
			placed = append(placed, live{node: op.place.Node, req: op.req})
		}
	}
	ep.stats = sched.Stats()
	for _, n := range sched.Snapshot() {
		if n.BGPerf > 0 {
			ep.bgPerf = append(ep.bgPerf, n.BGPerf)
		}
	}
	return ep, nil
}

// checkOp applies the per-call correctness checks to the call named id.
func checkOp(rep *report, cfg config, id string, op *admissionOp) {
	if cfg.tamper == "admission.snapshot" {
		op.snapshotOK = false
	}
	if op.err != nil && (op.remove || !op.refused()) {
		rep.fail(id, "%v", op.err)
	}
	if !op.snapshotOK {
		rep.fail(id, "Snapshot() job total != placed - removed")
	}
}

func runAdmission(cfg config) (*report, error) {
	size := admissionPassSize
	if cfg.tiny {
		size = 1
	}
	seedOf := func(i int) int64 { return derive(cfg.seed, streamAdmission, uint64(i)) }
	rep := &report{Correct: true}
	if cfg.trace {
		return rep, admissionTraced(cfg, size, seedOf, rep)
	}

	var e endToEnd
	var bg []float64
	var st cluster.Stats
	start := time.Now()
	stop := func() bool { return deadline(cfg, start) }
	for i := 0; i < size || !deadline(cfg, start); i++ {
		var until func() bool
		if i >= size {
			until = stop
		}
		ep, err := runEpisode(cfg, seedOf(i), false, until)
		if err != nil {
			return nil, err
		}
		for k, op := range ep.ops {
			rep.Attempted++
			checkOp(rep, cfg, fmt.Sprintf("episode %d call %d", i, k), op)
			if op.remove {
				continue
			}
			e.op(op.cost)
			e.work++
			e.workCost = e.workCost.add(op.cost)
			if i >= size {
				continue
			}
			e.firstOps++
			e.requested++
			e.decisions++
			e.allocOps++
			e.allocMB += float64(op.alloc) / 1e6
			if op.err == nil {
				e.admitted++
				e.qosN++
				if op.place.Result.QoSMeetable {
					e.qosOK++
				}
			}
		}
		for _, c := range ep.setups {
			e.setupCPU = append(e.setupCPU, c.cpu.Seconds())
		}
		if i < size {
			st = addStats(st, ep.stats)
			bg = append(bg, ep.bgPerf...)
		}
	}
	e.windows = float64(st.BOIterations + st.VerifyWindows)
	e.fill(rep)
	tv, tp := tail(e.opWall, e.firstOps)
	rep.note("admit_ms_p50 %.4f ms; admit_ms_tail %.4f ms at p%.1f of %d Place calls (wall clock); admit_frac %.4f frac",
		median(e.opWall), tv, tp, len(e.opWall), ratio(e.admitted, e.requested))
	rep.note("first pass of %d episodes: cache hit rate %.3f, %d screens, bg_perf_mean %.4f frac",
		size, ratio(st.CacheHits, st.CacheHits+st.CacheMisses), st.Screens, mean(bg))
	return rep, nil
}

// admissionTraced runs the first pass untraced, then traced under the
// CPU profiler, and reports the per-layer metrics.
func admissionTraced(cfg config, size int, seedOf func(int) int64, rep *report) error {
	var plain, traced []*admissionEpisode
	var plainCPU, tracedCPU time.Duration
	for i := 0; i < size; i++ {
		ep, err := runEpisode(cfg, seedOf(i), false, nil)
		if err != nil {
			return err
		}
		plain = append(plain, ep)
		for _, op := range ep.ops {
			plainCPU += op.cost.cpu
		}
	}
	fold, err := profiled(cfg, func() error {
		for i := 0; i < size; i++ {
			ep, err := runEpisode(cfg, seedOf(i), true, nil)
			if err != nil {
				return err
			}
			traced = append(traced, ep)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var hit, screen, remove []float64
	var st cluster.Stats
	places := 0
	for i := range traced {
		for j, ep := range [2]*admissionEpisode{plain[i], traced[i]} {
			for k, op := range ep.ops {
				rep.Attempted++
				checkOp(rep, cfg, fmt.Sprintf("%s episode %d call %d", passNames[j], i, k), op)
			}
		}
		var a, b []string
		for _, op := range plain[i].ops {
			a = append(a, op.digest())
		}
		for _, op := range traced[i].ops {
			b = append(b, op.digest())
			tracedCPU += op.cost.cpu
			switch {
			case op.remove:
				remove = append(remove, ms(op.cost.wall))
			case op.delta.Screens > 0:
				screen = append(screen, ms(op.cost.wall))
				places++
			default:
				hit = append(hit, ms(op.cost.wall))
				places++
			}
		}
		st = addStats(st, traced[i].stats)
		if cfg.tamper == "admission.digest" {
			b[0] = "tampered"
		}
		compareDigests(rep, a, b, func(k int) string { return fmt.Sprintf("traced episode %d call %d", i, k) })
	}

	n := float64(len(traced))
	vals := layerValues{
		"cluster.place_hit_ms_p50":    median(hit),
		"cluster.place_screen_ms_p50": median(screen),
		"cluster.remove_ms_p50":       median(remove),
		"cluster.cache_near_hits":     float64(st.CacheNearHits) / n,
		"cluster.prefilter_rejects":   float64(st.PrefilterRejects) / n,
		"cluster.screens":             float64(st.Screens) / n,
		"cluster.warm_screens":        float64(st.WarmScreens) / n,
		"cluster.bo_iterations":       float64(st.BOIterations) / n,
		"cluster.verify_windows":      float64(st.VerifyWindows) / n,
	}
	clusterRates(vals, st, places)
	setLayers(rep, vals, fold, plainCPU, tracedCPU)
	rep.note("per-episode means over %d traced episodes; %d Place calls classified %d hit / %d screen; %d Remove calls",
		len(traced), places, len(hit), len(screen), len(remove))
	return nil
}

// clusterRates adds the per-decision pipeline rates shared by the
// fleet and admission traced runs.
func clusterRates(vals layerValues, c cluster.Stats, decisions int) {
	d := float64(decisions)
	vals["cluster.candidates_per_arrival"] = float64(c.CacheHits+c.CacheMisses+c.PrefilterRejects) / d
	vals["cluster.cache_hit_rate"] = ratio(c.CacheHits, c.CacheHits+c.CacheMisses)
	vals["cluster.screens_per_place"] = float64(c.Screens) / d
	vals["cluster.bo_iters_per_place"] = float64(c.BOIterations) / d
}

func addStats(a, b cluster.Stats) cluster.Stats {
	return cluster.Stats{
		Placements:       a.Placements + b.Placements,
		Rejections:       a.Rejections + b.Rejections,
		PrefilterRejects: a.PrefilterRejects + b.PrefilterRejects,
		CacheHits:        a.CacheHits + b.CacheHits,
		CacheMisses:      a.CacheMisses + b.CacheMisses,
		CacheNearHits:    a.CacheNearHits + b.CacheNearHits,
		Screens:          a.Screens + b.Screens,
		WarmScreens:      a.WarmScreens + b.WarmScreens,
		BOIterations:     a.BOIterations + b.BOIterations,
		VerifyWindows:    a.VerifyWindows + b.VerifyWindows,
	}
}

func subStats(a, b cluster.Stats) cluster.Stats {
	return cluster.Stats{
		Placements:       a.Placements - b.Placements,
		Rejections:       a.Rejections - b.Rejections,
		PrefilterRejects: a.PrefilterRejects - b.PrefilterRejects,
		CacheHits:        a.CacheHits - b.CacheHits,
		CacheMisses:      a.CacheMisses - b.CacheMisses,
		CacheNearHits:    a.CacheNearHits - b.CacheNearHits,
		Screens:          a.Screens - b.Screens,
		WarmScreens:      a.WarmScreens - b.WarmScreens,
		BOIterations:     a.BOIterations - b.BOIterations,
		VerifyWindows:    a.VerifyWindows - b.VerifyWindows,
	}
}
