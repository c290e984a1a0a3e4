// Package fleet scales the cluster scheduler to warehouse size: a
// discrete-event simulation that streams job arrivals and departures
// from deterministic traffic shapes onto thousands of simulated
// nodes, placed by scheduler shards that run concurrently and still
// produce byte-identical decisions at every shard count.
//
// The scaling unit is the cell, not the shard (DESIGN.md §14). The
// fleet is carved into fixed-size cells of CellNodes nodes; each cell
// is one cluster.Scheduler with a private overlay profile cache and a
// private tracer. Shards are worker groups over cells — shard s runs
// the cells c ≡ s (mod Shards) — so the shard count is purely a
// concurrency knob: it decides how many cells place in parallel,
// never which cell a job lands in or what any cell decides.
//
// Time advances in epochs. Each epoch has three strictly ordered
// parts:
//
//   - a sequential event drain: arrivals, departures, and node deaths
//     up to the epoch boundary pop in (time, seq) order; the
//     mean-field pre-partitioner routes each arrival to a cell from
//     solo-profile load estimates;
//   - a concurrent placement phase: par.Go runs the shards, each cell
//     placing its assigned arrivals through the full per-node
//     pipeline (pre-filter → cache → BO) against only its own state;
//   - a sequential barrier in cell index order: outcomes commit,
//     departures and retries are scheduled, cell traces merge into
//     the fleet trace, and newly screened profile entries sync
//     through the hub cache to every cell (first write wins).
//
// Cells never share mutable state inside the concurrent phase — the
// overlay caches delegate only the immutable analytical profiles to
// the hub — so the decision stream is a pure function of the seed.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"clite/internal/cluster"
	"clite/internal/faults"
	"clite/internal/obs"
	"clite/internal/par"
	"clite/internal/profile"
	"clite/internal/resource"
	"clite/internal/telemetry"
)

// Options configures a fleet simulation.
type Options struct {
	// Nodes is the fleet size (default 1024).
	Nodes int
	// CellNodes is the cell size in nodes (default 64). Cells are the
	// decision-granularity unit: changing CellNodes changes decisions,
	// changing Shards never does.
	CellNodes int
	// Shards is the number of concurrent worker groups over the cells
	// (default 4, clamped to the cell count). A pure concurrency knob.
	Shards int
	// Seed drives every stream in the simulation: traffic, per-cell
	// schedulers, and measurement noise.
	Seed int64
	// Duration is the simulated horizon in seconds (default 60).
	Duration float64
	// Epoch is the barrier interval in simulated seconds (default 1):
	// arrivals inside one epoch place concurrently, commit at its end.
	Epoch float64
	// Traffic shapes the arrival stream (zero value: diurnal defaults).
	Traffic Traffic
	// ScreenIterations bounds each cell's per-screen BO budget
	// (default 12 — tighter than a lone cluster's 24; the fleet leans
	// on the cache and the pre-filter for throughput).
	ScreenIterations int
	// MaxAttempts bounds how many cells a job may try before it is
	// lost (default 3). Attempt 1 is the pre-partitioner's pick; later
	// attempts exclude every cell that rejected the job.
	MaxAttempts int
	// Deaths schedules whole-node losses (zero value: no deaths).
	Deaths faults.FleetPlan
	// SharedProfiles optionally supplies the hub profile cache, so
	// successive fleets — or a fleet and its surrounding tooling — pool
	// screening memos. nil builds a private hub.
	SharedProfiles *profile.Cache
	// Trace, when non-nil, receives the fleet timeline: arrival,
	// departure, and epoch events interleaved with every cell's
	// placement stream, merged at barriers in cell order.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, backs the fleet counters (fleet_* plus
	// the per-shard placement ledger).
	Metrics *telemetry.Registry
	// Obs, when non-nil, receives per-cell rollup samples at every
	// epoch barrier (in cell order, on the sequential tail) and an SLO
	// ledger entry per epoch. Because the feed happens only at the
	// barrier, the store's contents are byte-identical for every shard
	// count.
	Obs *obs.Store
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 1024
	}
	if o.CellNodes <= 0 {
		o.CellNodes = 64
	}
	if o.CellNodes > o.Nodes {
		o.CellNodes = o.Nodes
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Duration <= 0 {
		o.Duration = 60
	}
	if o.Epoch <= 0 {
		o.Epoch = 1
	}
	if o.ScreenIterations <= 0 {
		o.ScreenIterations = 12
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	o.Traffic = o.Traffic.withDefaults(o.Nodes)
	return o
}

// job is one streamed job's lifecycle record.
type job struct {
	id       int64
	workload string
	load     float64
	duration float64
	arriveAt float64
	demand   float64

	attempts int
	excluded []bool // cells that rejected the job
	placed   bool
	cell     int // owning cell while placed
	node     int // global node id while placed
	gen      int // placement generation, matches departure events
	gone     bool
}

func (j *job) request() cluster.Request {
	return cluster.Request{Workload: j.workload, Load: j.load}
}

// pending is one cell-assigned arrival awaiting the concurrent
// placement phase; the placing shard writes only p and err.
type pending struct {
	job *job
	p   cluster.Placement
	err error
}

// cell is one scheduling domain: a fixed slice of the fleet's nodes
// under one cluster.Scheduler, with a private overlay cache and
// tracer.
type cell struct {
	index int
	start int // global id of the cell's first node
	nodes int
	sched *cluster.Scheduler
	cache *profile.Cache
	trace *telemetry.Tracer
	mark  int // overlay journal mark for barrier sync
	queue []pending
	prev  cluster.Stats // last barrier's stats snapshot, for obs deltas
}

// Decision is one committed placement, the unit of the fleet's
// byte-identity contract: the decision stream is identical for every
// shard count.
type Decision struct {
	Job      int64   `json:"job"`
	At       float64 `json:"at"` // arrival time, simulated seconds
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	Cell     int     `json:"cell"`
	Node     int     `json:"node"` // global node id
	Attempt  int     `json:"attempt"`
	QoSOK    bool    `json:"qos_ok"`
}

// Summary reports one fleet run.
type Summary struct {
	Nodes    int
	Cells    int
	Shards   int
	Duration float64
	Epochs   int

	// Arrivals partitions into Placements, Rejections (no cell could
	// host within QoS after MaxAttempts or all cells were excluded),
	// and Lost (displaced or retried jobs whose service time ran out
	// before they landed). Retries counts extra placement attempts.
	Arrivals   int
	Placements int
	Rejections int
	Lost       int
	Retries    int
	Departures int

	// Deaths counts nodes lost; Rehomed the displaced jobs that found
	// a new node (within the cell or across cells).
	Deaths  int
	Rehomed int

	// Cluster aggregates the per-cell pipeline counters; CacheEntries
	// is the hub cache's distinct-mix count; Demand is the
	// partitioner's final fleet-wide load estimate.
	Cluster      cluster.Stats
	CacheEntries int
	Demand       float64

	// Decisions is the committed placement log in barrier order.
	Decisions []Decision
}

// counters is the registry-backed fleet ledger.
type counters struct {
	arrivals, placements *telemetry.Counter
	rejections, lost     *telemetry.Counter
	retries, departures  *telemetry.Counter
	deaths, rehomed      *telemetry.Counter
	epochs               *telemetry.Counter
	shardPlacements      []*telemetry.Counter
}

func newCounters(reg *telemetry.Registry, shards int) counters {
	c := counters{
		arrivals:   reg.Counter("fleet_arrivals_total"),
		placements: reg.Counter("fleet_placements_total"),
		rejections: reg.Counter("fleet_rejections_total"),
		lost:       reg.Counter("fleet_lost_total"),
		retries:    reg.Counter("fleet_retries_total"),
		departures: reg.Counter("fleet_departures_total"),
		deaths:     reg.Counter("fleet_deaths_total"),
		rehomed:    reg.Counter("fleet_rehomed_total"),
		epochs:     reg.Counter("fleet_epochs_total"),
	}
	for s := 0; s < shards; s++ {
		c.shardPlacements = append(c.shardPlacements,
			reg.Counter(fmt.Sprintf("fleet_shard_%d_placements_total", s)))
	}
	return c
}

// Fleet is one configured simulation. Build with New, run once with
// Run.
type Fleet struct {
	opts   Options
	cells  []*cell
	hub    *profile.Cache
	part   *partitioner
	gen    *generator
	queue  eventQueue
	jobs   []*job
	dead   []bool
	trace  *telemetry.Tracer
	stats  counters
	hubMrk int
	ran    bool
}

// New builds a fleet over opts.Nodes nodes carved into fixed-size
// cells. Cell schedulers run their own screening sequentially
// (ScreenWorkers 1): the fleet's concurrency axis is cells, and
// nesting pools would oversubscribe the machine without adding any
// parallel slack.
func New(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	if err := opts.Traffic.validate(); err != nil {
		return nil, err
	}
	if err := opts.Deaths.Validate(); err != nil {
		return nil, err
	}
	hub := opts.SharedProfiles
	if hub == nil {
		hub = profile.NewCache(resource.Default())
	}
	numCells := (opts.Nodes + opts.CellNodes - 1) / opts.CellNodes
	if opts.Shards > numCells {
		opts.Shards = numCells
	}
	f := &Fleet{
		opts:  opts,
		hub:   hub,
		gen:   newGenerator(opts.Traffic, opts.Seed),
		dead:  make([]bool, opts.Nodes),
		trace: opts.Trace,
		stats: newCounters(opts.Metrics, opts.Shards),
	}
	for i := 0; i < numCells; i++ {
		start := i * opts.CellNodes
		n := opts.CellNodes
		if start+n > opts.Nodes {
			n = opts.Nodes - start
		}
		overlay := profile.NewOverlay(hub)
		var ct *telemetry.Tracer
		if f.trace != nil {
			ct = telemetry.NewTracer()
		}
		f.cells = append(f.cells, &cell{
			index: i,
			start: start,
			nodes: n,
			cache: overlay,
			trace: ct,
			sched: cluster.New(cluster.Options{
				Nodes:            n,
				Seed:             opts.Seed + int64(i)*1_000_003,
				ScreenIterations: opts.ScreenIterations,
				ScreenWorkers:    1,
				SharedProfiles:   overlay,
				Trace:            ct,
			}),
		})
	}
	f.part = newPartitioner(resource.Default(), hub, f.cells)
	opts.Obs.RegisterCells(numCells)
	return f, nil
}

// cellOf maps a global node id to its cell.
func (f *Fleet) cellOf(node int) *cell {
	return f.cells[node/f.opts.CellNodes]
}

// Run executes the simulation to its horizon and returns the summary.
// A fleet runs once; decisions depend on cache state, so re-running
// the same Fleet would not replay.
func (f *Fleet) Run() (Summary, error) {
	if f.ran {
		return Summary{}, errors.New("fleet: already ran; build a new Fleet")
	}
	f.ran = true
	for _, d := range f.opts.Deaths.Schedule(f.opts.Nodes, f.opts.Duration) {
		f.queue.push(&event{at: d.At, kind: evDeath, node: d.Node})
	}
	f.pushNextArrival()

	sum := Summary{
		Nodes:    f.opts.Nodes,
		Cells:    len(f.cells),
		Shards:   f.opts.Shards,
		Duration: f.opts.Duration,
	}
	epochs := int(math.Ceil(f.opts.Duration / f.opts.Epoch))
	for e := 0; e < epochs; e++ {
		epochEnd := float64(e+1) * f.opts.Epoch
		if e == epochs-1 {
			epochEnd = f.opts.Duration
		}
		if err := f.drain(epochEnd, &sum); err != nil {
			return Summary{}, err
		}
		f.placeEpoch()
		if err := f.barrier(e, epochEnd, &sum); err != nil {
			return Summary{}, err
		}
	}
	sum.Epochs = epochs
	sum.CacheEntries = f.hub.Len()
	sum.Demand = f.part.total()
	for _, c := range f.cells {
		s := c.sched.Stats()
		sum.Cluster.Placements += s.Placements
		sum.Cluster.Rejections += s.Rejections
		sum.Cluster.PrefilterRejects += s.PrefilterRejects
		sum.Cluster.CacheHits += s.CacheHits
		sum.Cluster.CacheMisses += s.CacheMisses
		sum.Cluster.CacheNearHits += s.CacheNearHits
		sum.Cluster.Screens += s.Screens
		sum.Cluster.WarmScreens += s.WarmScreens
		sum.Cluster.BOIterations += s.BOIterations
		sum.Cluster.VerifyWindows += s.VerifyWindows
	}
	return sum, nil
}

// pushNextArrival generates and enqueues the next traffic arrival, if
// it falls inside the horizon.
func (f *Fleet) pushNextArrival() {
	a := f.gen.next()
	if a.at >= f.opts.Duration {
		return
	}
	j := &job{
		id:       int64(len(f.jobs)),
		workload: a.workload,
		load:     a.load,
		duration: a.duration,
		arriveAt: a.at,
		cell:     -1,
		node:     -1,
		excluded: make([]bool, len(f.cells)),
	}
	f.jobs = append(f.jobs, j)
	f.queue.push(&event{at: a.at, kind: evArrival, job: j})
}

// drain is the epoch's sequential part: pop every event before the
// boundary in (time, seq) order and route it. All partitioner and
// registry mutation happens here or at the barrier — never inside the
// concurrent phase.
func (f *Fleet) drain(epochEnd float64, sum *Summary) error {
	for {
		at, ok := f.queue.peekAt()
		if !ok || at >= epochEnd {
			return nil
		}
		ev := f.queue.pop()
		switch ev.kind {
		case evArrival:
			f.onArrival(ev, sum)
		case evDeparture:
			if err := f.onDeparture(ev, sum); err != nil {
				return err
			}
		case evDeath:
			if err := f.onDeath(ev, sum); err != nil {
				return err
			}
		}
	}
}

// onArrival routes one arrival (fresh or retry) to a cell. Fresh
// arrivals also prime the next one, keeping exactly one future
// arrival in the queue — the stream never materializes.
func (f *Fleet) onArrival(ev *event, sum *Summary) {
	j := ev.job
	fresh := j.attempts == 0
	if fresh {
		f.stats.arrivals.Inc()
		sum.Arrivals++
		f.pushNextArrival()
	} else {
		f.stats.retries.Inc()
		sum.Retries++
	}
	if j.gone || j.arriveAt+j.duration <= ev.at {
		// The job's service time ran out while it waited for a retry.
		j.gone = true
		f.stats.lost.Inc()
		sum.Lost++
		return
	}
	if j.demand == 0 {
		d, err := f.part.jobDemand(j.workload, j.load)
		if err != nil {
			// An unknown workload cannot be placed anywhere; reject.
			f.stats.rejections.Inc()
			sum.Rejections++
			return
		}
		j.demand = d
	}
	c := f.part.assign(j.excluded)
	if c < 0 {
		f.stats.rejections.Inc()
		sum.Rejections++
		return
	}
	j.attempts++
	j.cell = c
	f.part.add(c, j.demand)
	f.trace.Emit(telemetry.JobArrival(ev.at, j.workload, c, j.attempts, j.load))
	f.cells[c].queue = append(f.cells[c].queue, pending{job: j})
}

// onDeparture releases a placed job's node share at the end of its
// service time. Stale events — the job was displaced by a node death
// and re-placed since — are ignored; a departure for a job still
// waiting on a retry marks it gone.
func (f *Fleet) onDeparture(ev *event, sum *Summary) error {
	j := ev.job
	if ev.gen != j.gen {
		return nil
	}
	if !j.placed {
		j.gone = true
		return nil
	}
	c := f.cells[j.cell]
	if err := c.sched.Remove(j.node-c.start, j.request()); err != nil {
		return fmt.Errorf("fleet: departure of job %d: %w", j.id, err)
	}
	j.placed = false
	f.part.sub(j.cell, j.demand)
	f.trace.Emit(telemetry.JobDeparture(ev.at, j.workload, j.node))
	f.stats.departures.Inc()
	sum.Departures++
	j.node, j.cell = -1, -1
	return nil
}

// onDeath fails one node and resettles its jobs. The owning cell's
// scheduler rehomes within the cell; jobs it cannot keep re-enter the
// event queue as retries at the death's own timestamp, so they try
// another cell in this same epoch. Deaths drawn for an already-dead
// node are skipped (the plan's stream stays draw-independent).
func (f *Fleet) onDeath(ev *event, sum *Summary) error {
	if f.dead[ev.node] {
		return nil
	}
	f.dead[ev.node] = true
	c := f.cellOf(ev.node)
	f.part.kill(c.index)
	f.stats.deaths.Inc()
	sum.Deaths++
	outcomes, err := c.sched.FailNode(ev.node - c.start)
	if err != nil {
		return fmt.Errorf("fleet: death of node %d: %w", ev.node, err)
	}
	for _, o := range outcomes {
		j := f.matchDisplaced(ev.node, o.Request)
		if j == nil {
			return fmt.Errorf("fleet: death of node %d displaced unknown job %s", ev.node, o.Request.Workload)
		}
		if o.Err == nil {
			// Rehomed within the cell; same demand, new node.
			j.node = c.start + o.Node
			j.gen++
			f.queue.push(&event{at: j.departAt(ev.at), kind: evDeparture, job: j, gen: j.gen})
			f.stats.rehomed.Inc()
			sum.Rehomed++
			continue
		}
		if !errors.Is(o.Err, cluster.ErrUnplaceable) {
			return fmt.Errorf("fleet: rehoming job %d: %w", j.id, o.Err)
		}
		// The cell is full; send the job back through the partitioner,
		// excluding the cell that just turned it away.
		j.placed = false
		j.node, j.cell = -1, -1
		j.gen++
		f.part.sub(c.index, j.demand)
		j.excluded[c.index] = true
		f.queue.push(&event{at: ev.at, kind: evArrival, job: j})
	}
	return nil
}

// matchDisplaced finds the lowest-id placed job on the failed node
// matching the drained request. Identical requests are
// interchangeable, so lowest-id matching keeps displacement
// deterministic. A matched job is updated by the caller and no longer
// matches, so no claim set is needed.
func (f *Fleet) matchDisplaced(node int, req cluster.Request) *job {
	for _, j := range f.jobs {
		if j.placed && !j.gone && j.node == node &&
			j.workload == req.Workload && j.load == req.Load {
			return j
		}
	}
	return nil
}

// departAt schedules a placed job's departure: its service time from
// arrival, but never before the current instant (a displaced job
// whose time already ran out departs immediately at its re-placement
// commit).
func (j *job) departAt(now float64) float64 {
	at := j.arriveAt + j.duration
	if at < now {
		return now
	}
	return at
}

// placeEpoch is the concurrent phase: each shard walks its cells
// (c ≡ s mod Shards) and each cell places its queued arrivals in
// order. A shard writes only to its own cells' queues, cells share no
// mutable state, so the phase is race-free and its outcomes are
// independent of the shard count.
func (f *Fleet) placeEpoch() {
	par.Go(f.opts.Shards, func(s int) {
		for ci := s; ci < len(f.cells); ci += f.opts.Shards {
			c := f.cells[ci]
			for i := range c.queue {
				//lint:allow emitorder each cell's scheduler traces into that cell's private tracer, MergeDrained at the barrier in cell index order
				c.queue[i].p, c.queue[i].err = c.sched.Place(c.queue[i].job.request())
			}
		}
	})
}

// barrier is the epoch's sequential tail, in cell index order: merge
// cell traces, commit outcomes, schedule departures and retries, and
// sync newly screened profile entries up to the hub and back down to
// every cell. Everything here is a pure function of the cells' (own)
// deterministic state, so the barrier output is byte-identical for
// every shard count.
func (f *Fleet) barrier(epoch int, epochEnd float64, sum *Summary) error {
	placed := 0
	var samples []obs.CellSample
	if f.opts.Obs != nil {
		samples = make([]obs.CellSample, 0, len(f.cells))
	}
	for _, c := range f.cells {
		f.trace.MergeDrain(c.trace, c.start)
		cellPlaced, cellViol, cellRejected := 0, 0, 0
		for i := range c.queue {
			p := &c.queue[i]
			j := p.job
			if p.err == nil {
				j.placed = true
				j.node = c.start + p.p.Node
				j.gen++
				f.queue.push(&event{at: j.departAt(epochEnd), kind: evDeparture, job: j, gen: j.gen})
				f.stats.placements.Inc()
				f.stats.shardPlacements[c.index%f.opts.Shards].Inc()
				sum.Placements++
				placed++
				cellPlaced++
				if !p.p.Result.QoSMeetable {
					cellViol++
				}
				sum.Decisions = append(sum.Decisions, Decision{
					Job: j.id, At: j.arriveAt, Workload: j.workload, Load: j.load,
					Cell: c.index, Node: j.node, Attempt: j.attempts,
					QoSOK: p.p.Result.QoSMeetable,
				})
				continue
			}
			cellRejected++
			if !errors.Is(p.err, cluster.ErrUnplaceable) {
				return fmt.Errorf("fleet: placing job %d: %w", j.id, p.err)
			}
			f.part.sub(c.index, j.demand)
			j.excluded[c.index] = true
			j.cell = -1
			switch {
			case j.arriveAt+j.duration <= epochEnd:
				// Too short-lived to survive another epoch of waiting.
				j.gone = true
				f.stats.lost.Inc()
				sum.Lost++
			case j.attempts >= f.opts.MaxAttempts || epochEnd >= f.opts.Duration:
				f.stats.rejections.Inc()
				sum.Rejections++
			default:
				f.queue.push(&event{at: epochEnd, kind: evArrival, job: j})
			}
		}
		c.queue = c.queue[:0]
		if f.opts.Obs != nil {
			// Per-cell rollup delta since the last barrier, read on the
			// sequential tail so the sample stream is shard-invariant.
			s := c.sched.Stats()
			d := s
			d.CacheHits -= c.prev.CacheHits
			d.CacheNearHits -= c.prev.CacheNearHits
			d.CacheMisses -= c.prev.CacheMisses
			d.BOIterations -= c.prev.BOIterations
			d.Screens -= c.prev.Screens
			c.prev = s
			samples = append(samples, obs.CellSample{
				Cell:         c.index,
				Placed:       cellPlaced,
				Violations:   cellViol,
				Rejected:     cellRejected,
				CacheHits:    d.CacheHits + d.CacheNearHits,
				CacheLookups: d.CacheHits + d.CacheNearHits + d.CacheMisses,
				BOIterations: d.BOIterations,
				Screens:      d.Screens,
			})
		}
	}

	// Cache sync: adopt each cell's new screening memos into the hub
	// in cell order (first write wins — the same rule the scheduler
	// itself applies to equivalent candidates), then fan the hub's new
	// entries back to every cell. After this point all cells enter the
	// next epoch with identical cache contents.
	for _, c := range f.cells {
		entries, mark := c.cache.EntriesSince(c.mark)
		c.mark = mark
		for _, e := range entries {
			f.hub.Store(e)
		}
	}
	fresh, hubMark := f.hub.EntriesSince(f.hubMrk)
	f.hubMrk = hubMark
	for _, c := range f.cells {
		for _, e := range fresh {
			if c.cache.Store(e) {
				// Adopted entries join the overlay's journal; advance the
				// mark past them so the next barrier does not echo them
				// back to the hub.
				c.mark++
			}
		}
	}

	f.opts.Obs.ObserveCells(epochEnd, epoch, samples)
	if f.trace != nil {
		f.trace.Emit(telemetry.FleetEpoch(epochEnd, epoch, placed, f.part.total()))
	}
	f.stats.epochs.Inc()
	return nil
}
