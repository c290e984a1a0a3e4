// Package benchmarks is the repo's hot-path benchmark harness: a
// fixed suite of measurements (surrogate update, posterior prediction,
// acquisition maximization, ORACLE sweep, one BO engine turn, one
// controller run, one cluster placement, one fleet simulation) over
// the incremental, pooled, parallel, cached paths the controller
// actually runs. cmd/bench serializes a run to BENCH_after.json and
// compares it against the same file at another commit; the tier-1
// smoke test runs the quick form of the suite so the harness itself
// cannot rot.
package benchmarks

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"clite/internal/bo"
	"clite/internal/cluster"
	"clite/internal/core"
	"clite/internal/fleet"
	"clite/internal/gp"
	"clite/internal/obs"
	"clite/internal/optimize"
	"clite/internal/policies"
	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/server"
	"clite/internal/stats"
	"clite/internal/telemetry"
)

// Config selects the suite variant.
type Config struct {
	// Quick shrinks problem sizes and replaces testing.Benchmark with
	// a fixed-repetition manual timing pass — the tier-1 smoke form.
	Quick bool
	// Telemetry attaches a live tracer and metrics registry to the
	// telemetry-capable benches (CLITERun), measuring the enabled-path
	// overhead. Results from instrumented and uninstrumented runs are
	// not comparable; cmd/bench records the flag so -compare can refuse
	// to mix them.
	Telemetry bool
	// Obs attaches the SLO observability plane (DESIGN.md §15): a
	// tapped store with every LC job registered as an SLO subject on
	// CLITERun, and a store fed per-cell rollups at the epoch barrier
	// on FleetPlace. ObsOverheadCLITE/ObsOverheadFleet pair runs with
	// the flag off and on to measure the enabled cost.
	Obs bool
}

// Result is one benchmark's outcome, in the units `go test -bench`
// reports, plus optional benchmark-specific counters (e.g. the cluster
// placement bench logs BO iterations per placement and the profile
// cache hit rate).
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// GoBenchLine renders the result in the classic `go test -bench`
// format, so files of them feed straight into benchstat.
func (r Result) GoBenchLine() string {
	return fmt.Sprintf("Benchmark%s 1 %.0f ns/op %d B/op %d allocs/op",
		r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
}

// bench is one suite entry's instantiated form: the timed operation,
// an optional untimed maintenance step to run every `every` operations
// (e.g. re-seeding the incremental window so steady state stays at the
// intended sample count), and an optional sampler of benchmark-
// specific counters taken once after the timed run.
type bench struct {
	op    func()
	reset func()
	every int
	extra func() map[string]float64
}

// spec is one suite entry.
type spec struct {
	name string
	make func(cfg Config) bench
}

func suite() []spec {
	return []spec{
		{"GPFit", gpFit},
		{"GPPredict", gpPredict},
		{"AcquisitionMaximize", acquisitionMaximize},
		{"OracleSweep", oracleSweep},
		{"BOEngineIteration", boEngineIteration},
		{"CLITERun", cliteRun},
		{"ClusterPlace", clusterPlace},
		{"FleetPlace", fleetPlace},
	}
}

// Run executes the suite under cfg, in suite order.
func Run(cfg Config) []Result {
	var out []Result
	for _, s := range suite() {
		b := s.make(cfg)
		var res Result
		if cfg.Quick {
			res = quickMeasure(s.name, b)
		} else {
			res = measure(s.name, b)
		}
		if b.extra != nil {
			res.Extra = b.extra()
		}
		out = append(out, res)
	}
	return out
}

// measure runs one bench under the standard go-benchmark driver.
func measure(name string, b bench) Result {
	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		tb.ResetTimer()
		for i := 0; i < tb.N; i++ {
			if b.reset != nil && i > 0 && i%b.every == 0 {
				tb.StopTimer()
				b.reset()
				tb.StartTimer()
			}
			b.op()
		}
	})
	return Result{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// Overhead is one interleaved off/on measurement: the off and on ops
// run back to back, alternating which goes first, for at least
// overheadMinPairs pairs and until overheadBudget of wall time has
// passed, each op timed on the wall clock. The two ops of a pair
// share the machine's load at that moment, so the overhead gates
// compare Ratio, the median of the per-pair on/off ratios: a burst
// from a neighbouring process lands on one pair, which the median
// discards, instead of on one side. The off and on benches keep their
// own seed counters, so pair i runs the same seed on both sides.
type Overhead struct {
	OffNs, OnNs float64 // per-side median ns/op
	Ratio       float64 // median of per-pair on/off ratios
	Pairs       int
}

const (
	overheadMinPairs = 5
	overheadBudget   = 2 * time.Second
)

// pairedOverhead runs the interleaved off/on measurement.
func pairedOverhead(off, on bench) Overhead {
	off.op() // warm both sides (code paths, pools, calibration caches)
	on.op()
	timeOp := func(op func()) float64 {
		start := time.Now()
		op()
		return float64(time.Since(start))
	}
	var offNs, onNs, ratios []float64
	start := time.Now()
	for i := 0; i < overheadMinPairs || time.Since(start) < overheadBudget; i++ {
		var a, b float64
		if i%2 == 0 {
			a = timeOp(off.op)
			b = timeOp(on.op)
		} else {
			b = timeOp(on.op)
			a = timeOp(off.op)
		}
		offNs, onNs, ratios = append(offNs, a), append(onNs, b), append(ratios, b/a)
	}
	return Overhead{
		OffNs: stats.Percentile(offNs, 50),
		OnNs:  stats.Percentile(onNs, 50),
		Ratio: stats.Percentile(ratios, 50),
		Pairs: len(ratios),
	}
}

// TelemetryOverhead pairs CLITERun with telemetry off and on. The
// tier-1 overhead smoke test asserts the enabled path lands within a
// few percent of the disabled one — the telemetry layer's headline
// cost contract.
func TelemetryOverhead(quick bool) Overhead {
	return pairedOverhead(cliteRun(Config{Quick: quick}), cliteRun(Config{Quick: quick, Telemetry: true}))
}

// ObsOverheadCLITE pairs CLITERun with telemetry enabled against the
// same run with the SLO observability plane tapped on top: store
// construction, job registration, and every per-event sink callback
// are all charged to the op. The tier-1 gate asserts the tapped run
// lands within 5% of the telemetry-only run.
func ObsOverheadCLITE(quick bool) Overhead {
	return pairedOverhead(cliteRun(Config{Quick: quick, Telemetry: true}),
		cliteRun(Config{Quick: quick, Telemetry: true, Obs: true}))
}

// ObsOverheadFleet pairs FleetPlace with and without an SLO store fed
// per-cell rollups at each epoch barrier. The barrier feed is the
// fleet's only obs touchpoint, so the contract is looser than the
// serving plane's: the tier-1 gate allows 10%.
func ObsOverheadFleet(quick bool) Overhead {
	return pairedOverhead(fleetPlace(Config{Quick: quick}), fleetPlace(Config{Quick: quick, Obs: true}))
}

// quickMeasure times a handful of repetitions directly — enough to
// prove the path runs and produce plausible magnitudes, cheap enough
// for the tier-1 race run.
func quickMeasure(name string, b bench) Result {
	const reps = 3
	allocs := int64(testing.AllocsPerRun(1, b.op))
	var total time.Duration
	for i := 0; i < reps; i++ {
		if b.reset != nil && i > 0 && i%b.every == 0 {
			b.reset()
		}
		start := time.Now()
		b.op()
		total += time.Since(start)
	}
	return Result{
		Name:        name,
		NsPerOp:     float64(total.Nanoseconds()) / reps,
		AllocsPerOp: allocs,
	}
}

func gpData(n, dim int, seed int64) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = rng.Float64()
	}
	return xs, ys
}

// gpFit measures one per-iteration surrogate update at n≈50 (quick:
// n=16): every retained factor of the hyperparameter grid is
// extended by one row and the model re-selected.
func gpFit(cfg Config) bench {
	n, dim := 50, 15
	if cfg.Quick {
		n, dim = 16, 8
	}
	const window = 10
	xs, ys := gpData(n+window, dim, 1)
	pool, err := gp.NewPool("matern52", 0)
	if err != nil {
		panic(err)
	}
	i := n
	reset := func() {
		if err := pool.Condition(xs[:n], ys[:n]); err != nil {
			panic(err)
		}
		i = n
	}
	reset()
	op := func() {
		if i == n+window {
			reset() // timed fallback; Run's cadence normally prevents it
		}
		if err := pool.Observe(xs[i], ys[i]); err != nil {
			panic(err)
		}
		i++
		if _, err := pool.Best(); err != nil {
			panic(err)
		}
	}
	return bench{op: op, reset: reset, every: window}
}

// gpPredict measures one posterior evaluation: a one-row PredictBatch
// through a reused buffer, the form the engine's single-point scores
// take.
func gpPredict(cfg Config) bench {
	n, dim := 50, 15
	if cfg.Quick {
		n, dim = 16, 8
	}
	xs, ys := gpData(n, dim, 2)
	pool, err := gp.NewPool("matern52", 0)
	if err != nil {
		panic(err)
	}
	if err := pool.Condition(xs, ys); err != nil {
		panic(err)
	}
	model, err := pool.Best()
	if err != nil {
		panic(err)
	}
	probe := xs[:1]
	var mean, std [1]float64
	var buf gp.PredictBuf
	return bench{op: func() {
		if err := model.PredictBatch(probe, mean[:], std[:], &buf); err != nil {
			panic(err)
		}
	}}
}

// acquisitionMaximize measures one constrained multi-start EI-shaped
// maximization over the partition polytope, its starts fanned out
// over the worker pool.
func acquisitionMaximize(cfg Config) bench {
	topo := resource.Default()
	nJobs := 3
	iters := 0
	if cfg.Quick {
		nJobs = 2
		iters = 10
	}
	target := resource.EqualSplit(topo, nJobs).Vector()
	objective := optimize.PerRow(func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - target[i]
			s -= d * d
		}
		return s
	})
	// The multi-start arena carries across ops, as in the engine.
	scratch := new(optimize.Scratch)
	seed := int64(0)
	return bench{op: func() {
		seed++
		optimize.Maximize(optimize.Problem{
			Topo: topo, NJobs: nJobs,
			Objective:  objective,
			FrozenJob:  -1,
			Iterations: iters,
			RNG:        stats.NewRNG(seed),
			Scratch:    scratch,
		})
	}}
}

func benchMachine(seed int64) *server.Machine {
	m := server.New(resource.Default(), server.DefaultSpec(), seed)
	if _, err := m.AddLC("memcached", 0.2); err != nil {
		panic(err)
	}
	if _, err := m.AddLC("img-dnn", 0.1); err != nil {
		panic(err)
	}
	if _, err := m.AddBG("streamcluster"); err != nil {
		panic(err)
	}
	return m
}

// oracleSweep measures the offline brute-force baseline: the
// block-sharded sweep over the precomputed measurement table with
// cached log-term scoring, pinned at four workers outside quick mode —
// the acceptance configuration, which block sharding makes no slower
// than one worker even on a single core.
func oracleSweep(cfg Config) bench {
	m := benchMachine(1)
	budget := 0 // default 200k grid
	if cfg.Quick {
		budget = 2000
	}
	workers := 0
	if !cfg.Quick {
		workers = 4
	}
	oracle := policies.Oracle{Budget: budget, Workers: workers}
	return bench{op: func() {
		if _, err := oracle.Run(m); err != nil {
			panic(err)
		}
	}}
}

// boEngineIteration measures short engine runs (fit + acquisition +
// candidate selection per turn) through a Runner whose arenas —
// sample storage, seen-set, surrogate factors, multi-start and
// gradient scratch — persist across runs, the steady state of a
// controller re-optimizing after load changes.
func boEngineIteration(cfg Config) bench {
	topo := resource.Small()
	maxIter := 4
	if cfg.Quick {
		maxIter = 1
	}
	// The engine copies JobPerf out of each Evaluation, so one reused
	// slice serves every call.
	jobPerf := []float64{1, 1}
	eval := func(c resource.Config) (bo.Evaluation, error) {
		var s float64
		for _, a := range c.Jobs {
			s += float64(a[0])
		}
		return bo.Evaluation{Score: s / 20, JobPerf: jobPerf}, nil
	}
	seed := int64(0)
	runner, err := bo.NewRunner(topo, 2)
	if err != nil {
		panic(err)
	}
	return bench{op: func() {
		seed++
		if _, err := runner.Run(eval, bo.Options{
			Seed:          seed,
			MaxIterations: maxIter,
		}); err != nil {
			panic(err)
		}
	}}
}

// cliteRun measures one full controller invocation end to end — the
// path the telemetry layer instruments most densely (BO iterations,
// observation windows, QoS verdicts, termination). With cfg.Telemetry
// a fresh tracer and registry ride along each run and their allocation
// cost is charged to the op; without it the instrumented sites all hit
// their nil guards, which must cost nothing.
func cliteRun(cfg Config) bench {
	maxIter := 6
	if cfg.Quick {
		maxIter = 2
	}
	seed := int64(0)
	var runs, events float64
	op := func() {
		seed++
		m := benchMachine(seed)
		opts := core.Options{BO: bo.Options{Seed: seed, MaxIterations: maxIter}}
		if cfg.Telemetry {
			opts.Trace = telemetry.NewTracer()
			opts.Metrics = telemetry.NewRegistry()
		}
		if cfg.Obs {
			// The SLO plane rides the tracer tap, so the store's whole
			// per-event cost — window settlement, burn-rate updates,
			// ring-bucket writes — lands inside the traced run.
			if opts.Trace == nil {
				opts.Trace = telemetry.NewTracer()
			}
			store := obs.NewStore(obs.Options{})
			for _, jt := range m.QoSTargets() {
				store.RegisterJob(jt.Job, jt.Name, obs.SLO{Target: jt.Target})
			}
			opts.Trace.SetTap(store.Sink())
		}
		res, err := core.New(m, opts).Run()
		if err != nil {
			panic(err)
		}
		runs++
		if res.SamplesUsed <= 0 {
			panic("cliteRun: no samples evaluated")
		}
		if opts.Trace != nil {
			events += float64(opts.Trace.Len())
		}
	}
	extra := func() map[string]float64 {
		out := map[string]float64{"telemetry": 0}
		if cfg.Telemetry {
			out["telemetry"] = 1
			if runs > 0 {
				out["trace_events_per_run"] = events / runs
			}
		}
		return out
	}
	return bench{op: op, extra: extra}
}

// clusterPlace measures one placement decision of a sustained,
// repetitive request stream against an 8-node pool — the profile
// cache, admission pre-filter, and concurrent screening pipeline end
// to end. The scheduler is rebuilt after each full pass so the pool
// never saturates; repeats land within a pass, which is where the
// cache earns its keep. Extra logs the work ledger: BO iterations per
// placement and the cache hit rate, the acceptance metrics for the
// pipeline.
func clusterPlace(cfg Config) bench {
	nodes, iters := 8, 6
	if cfg.Quick {
		nodes, iters = 4, 4
	}
	reqs := []cluster.Request{
		{Workload: "memcached", Load: 0.2},
		{Workload: "swaptions"},
		{Workload: "img-dnn", Load: 0.2},
		{Workload: "memcached", Load: 0.2},
		{Workload: "swaptions"},
		{Workload: "memcached", Load: 0.2},
		{Workload: "img-dnn", Load: 0.2},
		{Workload: "swaptions"},
	}
	// The profile cache outlives each per-pass scheduler — the
	// warehouse-wide profile store — so steady-state passes admit from
	// memoized screens.
	shared := profile.NewCache(resource.Default())
	newSched := func() *cluster.Scheduler {
		return cluster.New(cluster.Options{
			Nodes:            nodes,
			Seed:             42,
			ScreenIterations: iters,
			SharedProfiles:   shared,
		})
	}
	sched := newSched()
	i := 0
	var agg cluster.Stats
	op := func() {
		r := reqs[i%len(reqs)]
		i++
		if _, err := sched.Place(r); err != nil && !errors.Is(err, cluster.ErrUnplaceable) {
			panic(err)
		}
	}
	reset := func() {
		agg = addStats(agg, sched.Stats())
		sched = newSched()
		i = 0
	}
	extra := func() map[string]float64 {
		st := addStats(agg, sched.Stats())
		out := map[string]float64{
			"placements":    float64(st.Placements),
			"rejections":    float64(st.Rejections),
			"screens":       float64(st.Screens),
			"bo_iterations": float64(st.BOIterations),
		}
		if total := st.Placements + st.Rejections; total > 0 {
			out["bo_iters_per_placement"] = float64(st.BOIterations) / float64(total)
		}
		if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
			out["cache_hit_rate"] = float64(st.CacheHits) / float64(lookups)
		}
		return out
	}
	return bench{op: op, reset: reset, every: len(reqs), extra: extra}
}

// fleetPlace measures warehouse-scale placement throughput: one op is
// a complete fleet simulation — streamed arrivals and departures over
// a thousand nodes (quick: 128), every placement through the full
// pre-filter → cache → BO pipeline, the fleet carved into 64-node
// cells run by four shards. Extra logs the acceptance metrics:
// end-to-end placements per wall-clock second, the profile-cache hit
// rate, and the measured throughput scaling from one shard to the
// configured count (≈1 on a single-core box; the shards only stretch
// out on real cores).
func fleetPlace(cfg Config) bench {
	nodes, cellNodes, shards := 1024, 64, 4
	duration := 30.0
	if cfg.Quick {
		nodes, cellNodes, shards = 128, 32, 2
		duration = 4
	}
	newOpts := func(seed int64, shards int) fleet.Options {
		o := fleet.Options{
			Nodes:     nodes,
			CellNodes: cellNodes,
			Shards:    shards,
			Seed:      seed,
			Duration:  duration,
		}
		if cfg.Obs {
			o.Obs = obs.NewStore(obs.Options{})
		}
		return o
	}
	runOnce := func(opts fleet.Options) (fleet.Summary, time.Duration) {
		f, err := fleet.New(opts)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		sum, err := f.Run()
		if err != nil {
			panic(err)
		}
		if sum.Placements == 0 {
			panic("fleetPlace: fleet placed nothing")
		}
		return sum, time.Since(start)
	}
	seed := int64(0)
	var wall time.Duration
	var last fleet.Summary
	var placed, runs float64
	op := func() {
		seed++
		sum, dt := runOnce(newOpts(seed, shards))
		wall += dt
		last = sum
		placed += float64(sum.Placements)
		runs++
	}
	extra := func() map[string]float64 {
		out := map[string]float64{
			"nodes":              float64(nodes),
			"cells":              float64(last.Cells),
			"shards":             float64(last.Shards),
			"arrivals_per_run":   float64(last.Arrivals),
			"placements_per_run": float64(last.Placements),
		}
		if wall > 0 {
			out["placements_per_sec"] = placed / wall.Seconds()
		}
		if lookups := last.Cluster.CacheHits + last.Cluster.CacheMisses; lookups > 0 {
			out["cache_hit_rate"] = float64(last.Cluster.CacheHits) / float64(lookups)
		}
		if runs > 0 {
			// One untimed single-shard replay of the last seed measures
			// how much the shards themselves buy on this machine. The
			// decisions are byte-identical by construction; only the wall
			// clock may differ.
			_, dt1 := runOnce(newOpts(seed, 1))
			if dt1 > 0 {
				out["shard_scaling"] = dt1.Seconds() / (wall.Seconds() / runs)
			}
		}
		return out
	}
	return bench{op: op, extra: extra}
}

// addStats sums two scheduler stat ledgers, so clusterPlace can
// aggregate across the per-pass scheduler resets.
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
