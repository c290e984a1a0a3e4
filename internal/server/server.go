// Package server simulates the paper's testbed node (Table 2): a
// chip-multiprocessor machine that hosts a set of co-located
// latency-critical and background jobs, enforces resource partitions
// through the internal/isolation actuators, and measures each job over
// observation windows the way the paper reads performance counters —
// including measurement noise and the passage of (simulated) time.
//
// Every co-location policy in this repository, CLITE included, talks
// to the machine exclusively through Observe: propose a partition, pay
// an observation window, get back noisy per-job performance. That is
// the same black-box contract the real system imposes.
package server

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"clite/internal/isolation"
	"clite/internal/latsim"
	"clite/internal/qos"
	"clite/internal/resource"
	"clite/internal/stats"
	"clite/internal/telemetry"
	"clite/internal/workload"
)

// Spec mirrors the paper's Table 2 testbed description.
type Spec struct {
	CPUModel      string
	Sockets       int
	SpeedGHz      float64
	LogicalCores  int
	PhysicalCores int
	L1KB, L2KB    int
	L3KB          int
	L3Ways        int
	MemoryGB      int
	OS            string
	SSDGB         int
	HDDTB         int
}

// DefaultSpec returns the Table 2 configuration.
func DefaultSpec() Spec {
	return Spec{
		CPUModel:      "Intel(R) Xeon(R) Silver 4114 (simulated)",
		Sockets:       1,
		SpeedGHz:      2.2,
		LogicalCores:  20,
		PhysicalCores: 10,
		L1KB:          32,
		L2KB:          1024,
		L3KB:          14080,
		L3Ways:        11,
		MemoryGB:      46,
		OS:            "Ubuntu 18.04.1 LTS (simulated)",
		SSDGB:         500,
		HDDTB:         2,
	}
}

// Table2 renders the spec in the paper's Table 2 layout.
func (s Spec) Table2() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-28s %s\n", k, v) }
	row("Component", "Specification")
	row("CPU Model", s.CPUModel)
	row("Number of Sockets", fmt.Sprintf("%d", s.Sockets))
	row("Processor Speed", fmt.Sprintf("%.2fGHz", s.SpeedGHz))
	row("Logical Processor Cores", fmt.Sprintf("%d Cores (%d physical cores)", s.LogicalCores, s.PhysicalCores))
	row("Private L1 & L2 Cache Size", fmt.Sprintf("%dKB and %dKB", s.L1KB, s.L2KB))
	row("Shared L3 Cache Size", fmt.Sprintf("%d KB (%d-way set associative)", s.L3KB, s.L3Ways))
	row("Memory Capacity", fmt.Sprintf("%d GB", s.MemoryGB))
	row("Operating System", s.OS)
	row("SSD Capacity", fmt.Sprintf("%d GB", s.SSDGB))
	row("HDD Capacity", fmt.Sprintf("%d TB", s.HDDTB))
	return b.String()
}

// Job is one co-located job instance on the machine.
type Job struct {
	Workload *workload.Profile
	// LC-only fields, filled from the qos calibration:
	Load   float64 // fraction of MaxQPS currently offered
	MaxQPS float64
	QoS    float64 // p95 target, seconds
	// BG-only: isolation throughput (Iso-Perf in Eq. 3), sampled
	// during the initialization phase.
	IsoPerf float64
}

// IsLC reports whether the job is latency-critical.
func (j Job) IsLC() bool { return j.Workload.Class == workload.LatencyCritical }

// Lambda returns the currently offered request rate of an LC job.
func (j Job) Lambda() float64 { return j.Load * j.MaxQPS }

// DefaultWindow is the paper's observation period: two seconds, chosen
// so each window sees enough queries for a statistically meaningful
// p95 (Sec. 4).
const DefaultWindow = 2.0

// calMemo is a concurrency-safe memo of qos.Calibrate by (topology,
// workload). A calibration is a pure function of the pair — the paper
// derives it offline, once, before any co-location experiment — so one
// process-wide memo (calibrations) is the only calibration store: every
// machine and every solo profile reads it. The sweep runs outside the
// lock and the first write wins, so callers racing on one pair all get
// the stored value. It holds at most calMemoCap pairs; past the cap,
// sweeps run and are not stored.
type calMemo struct {
	mu sync.Mutex
	m  map[calKey]qos.Calibration
}

// calKey is a calibration's argument pair: the topology's Key and the
// workload.
type calKey struct {
	topo string
	p    *workload.Profile
}

// calMemoCap bounds the calibration memo: the registry's LC workloads
// over 32 topologies. A process uses one or two.
const calMemoCap = 256

// calibrations is the process's calibration memo.
var calibrations = newCalMemo()

func newCalMemo() *calMemo { return &calMemo{m: make(map[calKey]qos.Calibration)} }

// Calibrate returns qos.Calibrate(p, topo) from the process memo,
// sweeping on first use of the pair.
func Calibrate(p *workload.Profile, topo resource.Topology) (qos.Calibration, error) {
	return calibrations.calibrate(p, topo, topo.Key())
}

// calibrate returns qos.Calibrate(p, topo), where topoKey is
// topo.Key(), sweeping on first use of the pair.
func (c *calMemo) calibrate(p *workload.Profile, topo resource.Topology, topoKey string) (qos.Calibration, error) {
	key := calKey{topoKey, p}
	c.mu.Lock()
	cal, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return cal, nil
	}
	cal, err := qos.Calibrate(p, topo)
	if err != nil {
		return qos.Calibration{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		return prev, nil
	}
	if len(c.m) < calMemoCap {
		c.m[key] = cal
	}
	return cal, nil
}

// Calibrations is a concurrency-safe memo of analytic p95s, shared by
// machines. An LC job's analytic p95 depends only on (workload,
// physical allocation, λ, window): the isolation p95 (the NormPerf
// baseline) is the one at the full machine, and a verify window that
// replays a cached partition asks for the same few allocations again
// and again. Cluster schedulers, which reset a machine per screen and
// per verify window, share one memo across all of them; the first
// caller pays each p95, and every later caller reuses it. QoS
// calibrations are not kept here: every machine reads them from the
// process memo (Calibrate), keyed by topology and workload.
type Calibrations struct {
	mu  sync.Mutex
	p95 map[p95Key]float64
}

// p95Key is an analytic p95's exact argument tuple: the workload and
// the bit patterns of the allocation's fields, λ and the window.
type p95Key struct {
	workload                *workload.Profile
	cores                   int
	cache, memBw, mem, disk uint64
	lambda, window          uint64
}

// p95MemoCap bounds the p95 memo. A 1,024-node fleet run asks for a
// handful of distinct tuples; a long-lived service screening arbitrary
// partitions would otherwise grow the memo without limit. Past the
// cap, values are computed and not stored.
const p95MemoCap = 4096

// NewCalibrations returns an empty shared p95 memo.
func NewCalibrations() *Calibrations {
	return &Calibrations{p95: make(map[p95Key]float64)}
}

// P95 returns p.P95(alloc, lambda, window), computing it on first use
// of the exact (workload, allocation, λ, window) tuple. It computes
// outside the lock; callers racing on one key compute the same value.
func (c *Calibrations) P95(p *workload.Profile, alloc workload.Alloc, lambda, window float64) float64 {
	key := p95Key{
		workload: p, cores: alloc.Cores,
		cache: math.Float64bits(alloc.CacheMB), memBw: math.Float64bits(alloc.MemBwGB),
		mem: math.Float64bits(alloc.MemGB), disk: math.Float64bits(alloc.DiskBw),
		lambda: math.Float64bits(lambda), window: math.Float64bits(window),
	}
	c.mu.Lock()
	v, ok := c.p95[key]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = p.P95(alloc, lambda, window)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.p95) < p95MemoCap {
		c.p95[key] = v
	}
	return v
}

// Machine is the simulated server.
type Machine struct {
	topo   resource.Topology
	spec   Spec
	isol   *isolation.Manager
	jobs   []Job
	rng    *stats.RNG
	window float64

	topoKey      string  // topo.Key(), the machine's calibration memo key
	clock        float64 // simulated seconds elapsed
	observations int
	shared       *Calibrations

	// Isolation baselines, maintained eagerly so the measurement hot
	// paths never recompute them: fullAlloc is the whole-machine
	// physical allocation (constant per topology) and isoP95[i] is LC
	// job i's isolation p95 at its current (load, window). Entries are
	// refreshed by AddLC/SetLoad/SetWindow, which keeps concurrent
	// read-only measurement (the ORACLE shards) race-free.
	fullAlloc workload.Alloc
	isoP95    []float64

	// Telemetry (all nil when disabled; nil handles discard updates).
	trace        *telemetry.Tracer
	mWindows     *telemetry.Counter
	mViolations  *telemetry.Counter
	mP95         *telemetry.Histogram
	mQoSHeadroom *telemetry.Gauge
}

// New creates a machine over the topology with a deterministic
// measurement-noise stream derived from seed.
func New(topo resource.Topology, spec Spec, seed int64) *Machine {
	m := &Machine{
		topo:      topo,
		spec:      spec,
		isol:      isolation.NewManager(topo),
		topoKey:   topo.Key(),
		fullAlloc: workload.FullMachine(topo),
	}
	m.Reset(seed)
	return m
}

// Reset returns the machine to the state New(topology, spec, seed)
// builds, reusing its storage; the shared p95 memo stays attached. A scheduler observing one node after another resets a
// single machine instead of building one per trial.
func (m *Machine) Reset(seed int64) {
	m.jobs = m.jobs[:0]
	m.isoP95 = m.isoP95[:0]
	m.clock = 0
	m.observations = 0
	m.isol.Reset()
	m.SetTelemetry(nil, nil)
	m.window = DefaultWindow
	if m.rng == nil {
		m.rng = stats.NewRNG(seed)
	} else {
		m.rng.Reseed(seed)
	}
}

// refreshIso recomputes job i's cached isolation p95. It is a no-op
// for background jobs (their Iso-Perf normalizer is sampled once at
// AddBG time).
func (m *Machine) refreshIso(i int) {
	if j := m.jobs[i]; j.IsLC() {
		m.isoP95[i] = m.p95(j.Workload, m.fullAlloc, j.Lambda())
	}
}

// p95 is the LC workload's analytic p95 under alloc at the machine's
// window, through the shared memo when the machine has one.
func (m *Machine) p95(p *workload.Profile, alloc workload.Alloc, lambda float64) float64 {
	if m.shared != nil {
		return m.shared.P95(p, alloc, lambda, m.window)
	}
	return p.P95(alloc, lambda, m.window)
}

// NewShared is New with a shared p95 memo, which serves the machine's
// analytic p95s. Passing nil is equivalent to New.
func NewShared(topo resource.Topology, spec Spec, seed int64, cals *Calibrations) *Machine {
	m := New(topo, spec, seed)
	m.shared = cals
	return m
}

// SetTelemetry attaches a tracer and/or metrics registry to the
// machine. Metric handles are resolved once here so the per-window
// path never touches the registry lock. Passing nils detaches; the
// measurement stream itself is untouched either way — telemetry only
// observes.
func (m *Machine) SetTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	m.trace = tr
	m.mWindows = reg.Counter("server_windows_total")
	m.mViolations = reg.Counter("server_qos_violations_total")
	m.mP95 = reg.Histogram("server_p95_seconds", telemetry.LatencyBuckets())
	m.mQoSHeadroom = reg.Gauge("server_qos_headroom")
}

// publish records one noisy observation window onto the attached
// telemetry: the window event, one QoSViolation event per LC job over
// target, p95 samples, and the tightest QoS headroom (target/p95; <1
// means violated). All sinks are nil-safe, so the disabled path is two
// pointer compares.
func (m *Machine) publish(obs *Observation) {
	if m.trace == nil && m.mWindows == nil {
		return
	}
	violations := 0
	headroom := 0.0
	for i, job := range m.jobs {
		if !job.IsLC() {
			continue
		}
		m.mP95.Observe(obs.P95[i])
		if h := job.QoS / obs.P95[i]; headroom == 0 || h < headroom {
			headroom = h
		}
		if !obs.QoSMet[i] {
			violations++
			m.trace.Emit(telemetry.QoSViolation(obs.At, i, obs.P95[i], job.QoS))
		}
	}
	m.mWindows.Inc()
	m.mViolations.Add(int64(violations))
	if headroom > 0 {
		m.mQoSHeadroom.Set(headroom)
	}
	m.trace.Emit(telemetry.ObservationWindow(obs.At, violations, obs.AllQoSMet))
}

// Topology returns the machine's partitionable resources.
func (m *Machine) Topology() resource.Topology { return m.topo }

// Spec returns the Table 2 description.
func (m *Machine) Spec() Spec { return m.spec }

// Window returns the observation window in seconds.
func (m *Machine) Window() float64 { return m.window }

// SetWindow overrides the observation window (Sec. 4: "it has
// flexibility to be configured as needed").
func (m *Machine) SetWindow(seconds float64) {
	if seconds > 0 {
		m.window = seconds
		for i := range m.jobs {
			m.refreshIso(i)
		}
	}
}

// AddLC places a latency-critical job on the machine at the given load
// fraction of its calibrated maximum, returning its job index.
func (m *Machine) AddLC(name string, load float64) (int, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	if p.Class != workload.LatencyCritical {
		return 0, fmt.Errorf("server: %s is not latency-critical; use AddBG", name)
	}
	if !(load > 0 && load <= 1.5) {
		return 0, fmt.Errorf("server: load %v out of range (0, 1.5]", load)
	}
	cal, err := calibrations.calibrate(p, m.topo, m.topoKey)
	if err != nil {
		return 0, err
	}
	m.jobs = append(m.jobs, Job{
		Workload: p,
		Load:     load,
		MaxQPS:   cal.MaxQPS,
		QoS:      cal.QoSTarget,
	})
	m.isoP95 = append(m.isoP95, 0)
	m.refreshIso(len(m.jobs) - 1)
	return len(m.jobs) - 1, nil
}

// AddBG places a background job on the machine, returning its index.
// Its isolation throughput is sampled now (the initialization phase of
// Sec. 4) to serve as the Iso-Perf normalizer of Eq. 3.
func (m *Machine) AddBG(name string) (int, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	if p.Class != workload.Background {
		return 0, fmt.Errorf("server: %s is not a background job; use AddLC", name)
	}
	m.jobs = append(m.jobs, Job{
		Workload: p,
		IsoPerf:  p.Throughput(m.fullAlloc),
	})
	m.isoP95 = append(m.isoP95, 0)
	return len(m.jobs) - 1, nil
}

// Jobs returns a snapshot of the co-located jobs.
func (m *Machine) Jobs() []Job {
	out := make([]Job, len(m.jobs))
	copy(out, m.jobs)
	return out
}

// NumJobs returns the number of co-located jobs.
func (m *Machine) NumJobs() int { return len(m.jobs) }

// QoSTargets returns each LC job's p95 target in seconds, keyed by
// job index (BG jobs are absent) — the SLO wiring hook: the obs plane
// registers each entry as an SLO subject with Target set from here.
// The slice of pairs is in job-index order, so iteration is
// deterministic.
func (m *Machine) QoSTargets() []JobTarget {
	var out []JobTarget
	for i, j := range m.jobs {
		if !j.IsLC() {
			continue
		}
		out = append(out, JobTarget{Job: i, Name: j.Workload.Name, Target: j.QoS})
	}
	return out
}

// JobTarget is one LC job's QoS target (see QoSTargets).
type JobTarget struct {
	Job    int
	Name   string
	Target float64
}

// SetLoad changes an LC job's offered load (the Fig. 16 dynamic-load
// scenario).
func (m *Machine) SetLoad(job int, load float64) error {
	if job < 0 || job >= len(m.jobs) {
		return fmt.Errorf("server: no job %d", job)
	}
	if !m.jobs[job].IsLC() {
		return fmt.Errorf("server: job %d is background; it has no load knob", job)
	}
	if !(load > 0 && load <= 1.5) {
		return fmt.Errorf("server: load %v out of range (0, 1.5]", load)
	}
	m.jobs[job].Load = load
	m.refreshIso(job)
	return nil
}

// Observation is the result of running one observation window under a
// partition configuration.
type Observation struct {
	Config resource.Config
	// Per-job measurements, indexed like Jobs():
	P95        []float64 // seconds; 0 for BG jobs
	Throughput []float64 // ops/s; 0 for LC jobs
	QoSMet     []bool    // always true for BG jobs
	NormPerf   []float64 // performance normalized to isolation (Colo-Perf/Iso-Perf)
	AllQoSMet  bool
	At         float64 // simulated time when the window ended
}

// Observe applies the partition and runs one observation window,
// returning noisy per-job measurements. Simulated time advances by the
// window length (actuation overlaps the previous window, per Sec. 5.2,
// so it costs no extra wall time here but is still accounted by the
// isolation manager).
func (m *Machine) Observe(cfg resource.Config) (Observation, error) {
	return m.observe(cfg, true)
}

// ObserveIdeal is Observe without measurement noise and without
// advancing time. The ORACLE policy and tests use it as ground truth;
// online policies must not.
func (m *Machine) ObserveIdeal(cfg resource.Config) (Observation, error) {
	return m.observe(cfg, false)
}

// sharedPoolPenalty is the efficiency of unmanaged sharing: jobs left
// to contend for a pooled set of resources without isolation lose part
// of their nominal share to interference (destructive cache sharing,
// scheduler migrations, bandwidth fights). Heracles leaves its
// non-primary jobs unpartitioned, which is why it cannot co-locate
// multiple LC jobs (Fig. 7a).
const sharedPoolPenalty = 0.65

// ObserveShared is Observe for policies that leave a subset of jobs
// unpartitioned: jobs with shared[i] == true are measured as if they
// received their configured share degraded by the unmanaged-contention
// penalty (when two or more jobs share the pool). The configuration
// itself must still be feasible — the shares express how the pool
// divides on average.
func (m *Machine) ObserveShared(cfg resource.Config, shared []bool) (Observation, error) {
	if len(shared) != len(m.jobs) {
		return Observation{}, fmt.Errorf("server: shared mask has %d entries for %d jobs", len(shared), len(m.jobs))
	}
	nShared := 0
	for _, s := range shared {
		if s {
			nShared++
		}
	}
	penalty := 1.0
	if nShared >= 2 {
		penalty = sharedPoolPenalty
	}
	return m.observeScaled(cfg, true, shared, penalty)
}

func (m *Machine) observe(cfg resource.Config, noisy bool) (Observation, error) {
	return m.observeScaled(cfg, noisy, nil, 1)
}

func (m *Machine) observeScaled(cfg resource.Config, noisy bool, scaledJobs []bool, penalty float64) (Observation, error) {
	if len(m.jobs) == 0 {
		return Observation{}, fmt.Errorf("server: no jobs placed")
	}
	if cfg.NumJobs() != len(m.jobs) {
		return Observation{}, fmt.Errorf("server: config has %d jobs, machine hosts %d", cfg.NumJobs(), len(m.jobs))
	}
	if noisy {
		if err := m.isol.Apply(cfg); err != nil {
			return Observation{}, err
		}
		m.clock += m.window
		m.observations++
	} else if err := cfg.Validate(m.topo); err != nil {
		return Observation{}, err
	}
	obs := Observation{
		Config:     cfg.Clone(),
		P95:        make([]float64, len(m.jobs)),
		Throughput: make([]float64, len(m.jobs)),
		QoSMet:     make([]bool, len(m.jobs)),
		NormPerf:   make([]float64, len(m.jobs)),
		AllQoSMet:  true,
		At:         m.clock,
	}
	for i, job := range m.jobs {
		phys := workload.Physical(m.topo, cfg.Jobs[i])
		if scaledJobs != nil && scaledJobs[i] && penalty < 1 {
			phys.CacheMB *= penalty
			phys.MemBwGB *= penalty
			phys.MemGB *= penalty
			phys.DiskBw *= penalty
			if phys.Cores = int(float64(phys.Cores) * penalty); phys.Cores < 1 {
				phys.Cores = 1
			}
		}
		if job.IsLC() {
			lambda := job.Lambda()
			obs.P95[i] = m.p95(job.Workload, phys, lambda)
			if noisy {
				obs.P95[i] = latsim.Measured(obs.P95[i], lambda, m.window, m.rng)
			}
			obs.QoSMet[i] = obs.P95[i] <= job.QoS
			if !obs.QoSMet[i] {
				obs.AllQoSMet = false
			}
			obs.NormPerf[i] = m.isoP95[i] / obs.P95[i]
		} else {
			thr := job.Workload.Throughput(phys)
			if noisy {
				thr *= m.rng.LogNormalFactor(0.02)
			}
			obs.Throughput[i] = thr
			obs.QoSMet[i] = true
			obs.NormPerf[i] = thr / job.IsoPerf
		}
	}
	if noisy {
		m.publish(&obs)
	}
	return obs, nil
}

// JobMeasurement is the noise-free measurement of a single job under a
// hypothetical allocation, independent of the other jobs' shares.
type JobMeasurement struct {
	P95        float64
	Throughput float64
	QoSMet     bool
	NormPerf   float64
}

// MeasureJobIdeal evaluates one job in isolation from the rest of the
// partition: because the isolation tools make per-job performance a
// function of the job's own allocation only, a whole-configuration
// ideal observation decomposes into per-job measurements. The ORACLE
// brute-force policy exploits this for memoization; online policies
// must not use it.
func (m *Machine) MeasureJobIdeal(job int, alloc resource.Allocation) (JobMeasurement, error) {
	if job < 0 || job >= len(m.jobs) {
		return JobMeasurement{}, fmt.Errorf("server: no job %d", job)
	}
	j := m.jobs[job]
	phys := workload.Physical(m.topo, alloc)
	if j.IsLC() {
		lambda := j.Lambda()
		p95 := j.Workload.P95(phys, lambda, m.window)
		return JobMeasurement{
			P95:      p95,
			QoSMet:   p95 <= j.QoS,
			NormPerf: m.isoP95[job] / p95,
		}, nil
	}
	thr := j.Workload.Throughput(phys)
	return JobMeasurement{
		Throughput: thr,
		QoSMet:     true,
		NormPerf:   thr / j.IsoPerf,
	}, nil
}

// Clock returns the simulated time in seconds.
func (m *Machine) Clock() float64 { return m.clock }

// Observations returns how many (noisy) windows have been run — the
// paper's Fig. 15 overhead metric is a count of sampled configurations.
func (m *Machine) Observations() int { return m.observations }

// ActuationCost returns the cumulative simulated actuator latency.
func (m *Machine) ActuationCost() time.Duration { return m.isol.ActuationCost() }
