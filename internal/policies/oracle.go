package policies

import (
	"math"

	"clite/internal/core"
	"clite/internal/par"
	"clite/internal/resource"
	"clite/internal/server"
)

// Oracle is the paper's offline brute-force scheme: it scores
// configurations exhaustively with noise-free measurements and returns
// the best one. The paper notes it needs "typically 1000s of samples"
// and is infeasible online; here it exists as the normalizing baseline
// for every figure.
//
// Implementation note (documented in DESIGN.md §13): full enumeration
// of the default space is ~10⁸–10⁹ configurations, so Oracle
// enumerates a strided grid sized to Budget and then refines the
// winner by steepest-ascent unit transfers. Because isolation makes
// per-job performance a function of the job's own allocation only,
// per-job measurements are memoized — and because the grid is a cross
// product of per-resource compositions, the set of allocations job j
// can take is itself a small cross product, so the whole memo is
// precomputed up front into a dense mixed-radix table. The sweep then
// runs without a single hash probe: per configuration it is a few
// table lookups, the log-domain Eq. 3 sums (core.ScoreTerm), and a
// comparison that only leaves the log domain (calls Exp) when a
// candidate actually ascends — monotonicity of Exp makes the skip
// exact, not approximate.
//
// The sweep shards across workers by enumeration index: shard s owns
// the outer-composition residue class o ≡ s mod W and enumerates only
// its own blocks (resource.ForEachConfigShard), so a worker pays the
// inner cross-product cost for 1/W of the grid instead of re-walking
// all of it. Shards share the immutable precomputed table and never
// coordinate. The merge rule — highest score, ties to the lowest
// global enumeration index — reproduces the sequential first-maximum
// semantics exactly, so the result is byte-identical whatever the
// worker count (DESIGN.md §8, §13).
type Oracle struct {
	// Budget caps the number of grid configurations enumerated
	// (default 200,000); the stride is chosen to fit it.
	Budget int
	// Workers bounds the sweep's shard count: 0 means NumCPU, 1
	// forces the sequential path.
	Workers int
}

// Name implements Policy.
func (Oracle) Name() string { return "ORACLE" }

func (o Oracle) budget() int {
	if o.Budget > 0 {
		return o.Budget
	}
	return 200000
}

// measEntry is one memoized per-job measurement plus its precomputed
// Eq. 3 log term, so scoring a configuration needs no logarithms.
type measEntry struct {
	meas server.JobMeasurement
	term core.ScoreTerm
}

// tableCapPerJob bounds the precomputed table: a job whose grid
// allocation space exceeds it falls back to map memoization.
const tableCapPerJob = 1 << 16

// measTable is the dense precomputed memo: for each job, every
// allocation the strided grid can assign it, measured once, indexed
// mixed-radix by per-resource value rank. Shards read it concurrently
// without synchronization — it is immutable after build.
type measTable struct {
	// ranks[j][r][v] is the rank of unit value v for job j in resource
	// r (−1 when the grid never assigns it); dims[j][r] is the number
	// of distinct values.
	ranks   [][][]int16
	dims    [][]int
	entries [][]measEntry
}

// lookup returns job j's precomputed entry for alloc, or ok=false when
// any component lies off the grid (hill-climb probes do).
func (t *measTable) lookup(j int, a resource.Allocation) (measEntry, bool) {
	idx := 0
	ranks := t.ranks[j]
	for r, v := range a {
		rv := ranks[r]
		if v < 0 || v >= len(rv) {
			return measEntry{}, false
		}
		rk := rv[v]
		if rk < 0 {
			return measEntry{}, false
		}
		idx = idx*t.dims[j][r] + int(rk)
	}
	return t.entries[j][idx], true
}

// buildMeasTable precomputes every per-job measurement the strided
// grid can need. It returns nil when the space is degenerate or too
// large to tabulate (the sweep then memoizes lazily instead).
func buildMeasTable(m *server.Machine, topo resource.Topology, nJobs, stride int) (*measTable, error) {
	nres := len(topo)
	if nJobs <= 0 || nres == 0 {
		return nil, nil
	}
	t := &measTable{
		ranks:   make([][][]int16, nJobs),
		dims:    make([][]int, nJobs),
		entries: make([][]measEntry, nJobs),
	}
	// Collect, per (job, resource), the distinct unit values the
	// composition enumeration assigns.
	seen := make([][][]bool, nJobs)
	for j := 0; j < nJobs; j++ {
		seen[j] = make([][]bool, nres)
		t.ranks[j] = make([][]int16, nres)
		t.dims[j] = make([]int, nres)
		for r := range topo {
			seen[j][r] = make([]bool, topo[r].Units+1)
		}
	}
	for r := range topo {
		resource.ForEachComposition(topo[r].Units, nJobs, stride, func(shares []int) bool {
			for j, v := range shares {
				seen[j][r][v] = true
			}
			return true
		})
	}
	for j := 0; j < nJobs; j++ {
		total := 1
		for r := range topo {
			rv := make([]int16, topo[r].Units+1)
			dim := 0
			for v := range rv {
				if seen[j][r][v] {
					rv[v] = int16(dim)
					dim++
				} else {
					rv[v] = -1
				}
			}
			t.ranks[j][r] = rv
			t.dims[j][r] = dim
			if total *= dim; total == 0 {
				return nil, nil // empty grid; nothing to sweep
			}
			if total > tableCapPerJob || dim > math.MaxInt16 {
				return nil, nil
			}
		}
		t.entries[j] = make([]measEntry, total)
	}
	// Fill each job's table by walking its value-set cross product.
	jobs := m.Jobs()
	alloc := make(resource.Allocation, nres)
	for j := 0; j < nJobs; j++ {
		var fill func(r, idx int) error
		fill = func(r, idx int) error {
			if r == nres {
				v, err := m.MeasureJobIdeal(j, alloc)
				if err != nil {
					return err
				}
				t.entries[j][idx] = measEntry{
					meas: v,
					term: core.MakeScoreTerm(jobs[j], v.P95, v.QoSMet, v.NormPerf),
				}
				return nil
			}
			for v, rk := range t.ranks[j][r] {
				if rk < 0 {
					continue
				}
				alloc[r] = v
				if err := fill(r+1, idx*t.dims[j][r]+int(rk)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := fill(0, 0); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// oracleSweep is one shard's worth of sweep state: the shared
// measurement table, lazy fallback caches, and the shard-local winner.
type oracleSweep struct {
	m    *server.Machine
	jobs []server.Job

	table  *measTable
	caches []map[string]measEntry
	keyBuf []byte

	nLC, nBG int

	examined int
	err      error

	best      resource.Config
	bestScore float64
	bestIdx   int
	// Log-domain winner key: the relevant per-class log sum of the
	// current best, used to skip Exp for non-ascending candidates.
	bestMet bool
	bestSum float64
	have    bool
}

func newOracleSweep(m *server.Machine, jobs []server.Job, table *measTable) *oracleSweep {
	sw := &oracleSweep{
		m:         m,
		jobs:      jobs,
		table:     table,
		caches:    make([]map[string]measEntry, len(jobs)),
		bestScore: math.Inf(-1),
	}
	for j := range sw.caches {
		sw.caches[j] = make(map[string]measEntry)
	}
	for _, job := range jobs {
		if job.IsLC() {
			sw.nLC++
		} else {
			sw.nBG++
		}
	}
	return sw
}

// measure returns job j's memoized ideal measurement under alloc: the
// precomputed table when the allocation is on-grid, a string-keyed
// memo otherwise (hill-climb probes leave the grid). The fallback is
// probed through the reused key buffer — map lookups with a
// string(buf) index do not allocate; only a miss materializes the key.
func (sw *oracleSweep) measure(j int, alloc resource.Allocation) measEntry {
	if sw.table != nil {
		if e, ok := sw.table.lookup(j, alloc); ok {
			return e
		}
	}
	sw.keyBuf = appendAllocKey(sw.keyBuf[:0], alloc)
	if v, ok := sw.caches[j][string(sw.keyBuf)]; ok {
		return v
	}
	v, err := sw.m.MeasureJobIdeal(j, alloc)
	if err != nil && sw.err == nil {
		sw.err = err
	}
	e := measEntry{
		meas: v,
		term: core.MakeScoreTerm(sw.jobs[j], v.P95, v.QoSMet, v.NormPerf),
	}
	sw.caches[j][string(sw.keyBuf)] = e
	return e
}

// sums accumulates cfg's per-class Eq. 3 log sums in job order —
// exactly the order core.ScoreJobs appends to its per-class slices,
// so closing them with core.ScoreFromSums is bit-identical to
// ScoreJobs.
func (sw *oracleSweep) sums(cfg resource.Config) (lcRatioSum, lcPerfSum, bgPerfSum float64, allMet bool) {
	allMet = true
	for j := range sw.jobs {
		t := sw.measure(j, cfg.Jobs[j]).term
		if t.LC {
			lcRatioSum += t.LogRatio
			lcPerfSum += t.LogPerf
			if !t.QoSMet {
				allMet = false
			}
		} else {
			bgPerfSum += t.LogPerf
		}
	}
	return lcRatioSum, lcPerfSum, bgPerfSum, allMet
}

// score computes the exact Eq. 3 score of cfg without materializing an
// Observation, closing the memoized log-term sums (bit-identical to
// ScoreJobs, see core.ScoreFromSums).
func (sw *oracleSweep) score(cfg resource.Config) float64 {
	sw.examined++
	lcR, lcP, bgP, allMet := sw.sums(cfg)
	return core.ScoreFromSums(lcR, lcP, bgP, sw.nLC, sw.nBG, allMet)
}

// consider scores one sweep candidate in the log domain and promotes
// it to the shard winner when it strictly improves. The skip is
// exact: within a QoS class the score is Exp of the relevant sum (a
// monotone map), and an all-met configuration always outscores an
// unmet one (its score is strictly above ½, the unmet ceiling), so a
// candidate whose (met, sum) key does not exceed the winner's cannot
// have a strictly greater score and Exp need not be called.
func (sw *oracleSweep) consider(idx int, cfg resource.Config) {
	sw.examined++
	lcR, lcP, bgP, allMet := sw.sums(cfg)
	sum := lcR
	if allMet {
		if sw.nBG > 0 {
			sum = bgP
		} else {
			sum = lcP
		}
	}
	if sw.have {
		if sw.bestMet && !allMet {
			return
		}
		if sw.bestMet == allMet && sum <= sw.bestSum {
			return
		}
	}
	// Reaching here the candidate's (met, sum) key strictly exceeds
	// the winner's (or there is no winner yet), so the key always
	// advances — even when Exp rounds the scores equal and the winner
	// itself is kept (future skips against the larger key remain
	// exact, since a score between the two keys cannot be strictly
	// greater either).
	sc := core.ScoreFromSums(lcR, lcP, bgP, sw.nLC, sw.nBG, allMet)
	sw.bestMet, sw.bestSum = allMet, sum
	if sc > sw.bestScore {
		sw.bestScore = sc
		if sw.best.NumJobs() == 0 {
			sw.best = cfg.Clone()
		} else {
			sw.best.CopyFrom(cfg)
		}
		sw.bestIdx = idx
	}
	sw.have = true
}

// observe materializes the full Observation for cfg from the cache —
// the one-per-run form the Result carries.
func (sw *oracleSweep) observe(cfg resource.Config) server.Observation {
	nJobs := len(sw.jobs)
	obs := server.Observation{
		Config:     cfg.Clone(),
		P95:        make([]float64, nJobs),
		Throughput: make([]float64, nJobs),
		QoSMet:     make([]bool, nJobs),
		NormPerf:   make([]float64, nJobs),
		AllQoSMet:  true,
	}
	for j := 0; j < nJobs; j++ {
		meas := sw.measure(j, cfg.Jobs[j]).meas
		obs.P95[j] = meas.P95
		obs.Throughput[j] = meas.Throughput
		obs.QoSMet[j] = meas.QoSMet
		obs.NormPerf[j] = meas.NormPerf
		if !meas.QoSMet {
			obs.AllQoSMet = false
		}
	}
	return obs
}

// absorb merges another shard's fallback caches and examined count
// into sw. Merging is a per-key overwrite of identical values
// (measurements are pure functions of (job, alloc)), so map iteration
// order is irrelevant to the outcome.
func (sw *oracleSweep) absorb(other *oracleSweep) {
	sw.examined += other.examined
	for j := range sw.caches {
		for k, v := range other.caches[j] {
			sw.caches[j][k] = v
		}
	}
}

// Run implements Policy.
func (o Oracle) Run(m *server.Machine) (Result, error) {
	topo := m.Topology()
	nJobs := len(m.Jobs())
	best, bestScore, merged, err := o.sweepGrid(m, o.chooseStride(topo, nJobs))
	if err != nil {
		return Result{}, err
	}

	// Refine: steepest-ascent unit transfers from the grid winner and
	// from the equal split (the grid can miss narrow ridges). The
	// climbs run sequentially against the merged caches.
	for _, start := range []resource.Config{best, resource.EqualSplit(topo, nJobs)} {
		cfg, score := o.hillClimb(topo, nJobs, start, merged.score)
		if score > bestScore {
			bestScore = score
			best = cfg
		}
	}
	if merged.err != nil {
		return Result{}, merged.err
	}

	finalScore := merged.score(best)
	finalObs := merged.observe(best)
	return Result{
		Best:        best,
		BestScore:   finalScore,
		BestObs:     finalObs,
		SamplesUsed: merged.examined,
		QoSMeetable: finalObs.AllQoSMet,
	}, nil
}

// sweepGrid enumerates the strided grid and returns its first maximum
// in enumeration order, its score, and the merged shard state (memo
// caches and examined count) the refinement continues from.
func (o Oracle) sweepGrid(m *server.Machine, stride int) (resource.Config, float64, *oracleSweep, error) {
	topo := m.Topology()
	jobs := m.Jobs()
	nJobs := len(jobs)
	workers := par.Count(o.Workers)

	// Precompute the dense measurement table the sweep reads (shared,
	// immutable, settled in one declaration: the par workers below
	// capture it). Oversized spaces get a nil table and memoize lazily
	// per shard instead.
	table, err := buildMeasTable(m, topo, nJobs, stride)
	if err != nil {
		return resource.Config{}, 0, nil, err
	}

	// Shard by enumeration index: each worker walks only its own
	// blocks of the enumeration, and shards never coordinate (no
	// scheduling sensitivity).
	shards := make([]*oracleSweep, workers)
	par.Go(workers, func(s int) {
		sw := newOracleSweep(m, jobs, table)
		shards[s] = sw
		resource.ForEachConfigShard(topo, nJobs, stride, s, workers, func(idx int, cfg resource.Config) bool {
			sw.consider(idx, cfg)
			return true
		})
	})

	// Merge, in shard order: the winner is the highest score, ties
	// resolved to the lowest enumeration index — exactly the "first
	// maximum in enumeration order" a sequential sweep picks.
	merged := shards[0]
	var best resource.Config
	bestScore, bestIdx := math.Inf(-1), math.MaxInt
	for _, sw := range shards {
		if sw.err != nil {
			return resource.Config{}, 0, nil, sw.err
		}
		if sw.bestScore > bestScore || (sw.bestScore == bestScore && sw.bestIdx < bestIdx) {
			bestScore, bestIdx, best = sw.bestScore, sw.bestIdx, sw.best
		}
		if sw != merged {
			merged.absorb(sw)
		}
	}
	return best, bestScore, merged, nil
}

// chooseStride returns the smallest stride whose grid fits the budget.
func (o Oracle) chooseStride(topo resource.Topology, nJobs int) int {
	for stride := 1; stride < 8; stride++ {
		total := 1.0
		for _, spec := range topo {
			total *= float64(resource.CompositionCount(spec.Units, nJobs, stride))
			if total > float64(o.budget()) {
				break
			}
		}
		if total <= float64(o.budget()) {
			return stride
		}
	}
	return 8
}

// hillClimb performs steepest-ascent over single-unit transfers. The
// candidate is a scratch config rebuilt by CopyFrom per probe, so the
// climb allocates only its two working configs.
func (o Oracle) hillClimb(topo resource.Topology, nJobs int, start resource.Config,
	scoreOf func(resource.Config) float64) (resource.Config, float64) {
	best := start.Clone()
	bestScore := scoreOf(best)
	cand := start.Clone()
	for {
		improved := false
		for r := range topo {
			for from := 0; from < nJobs; from++ {
				for to := 0; to < nJobs; to++ {
					cand.CopyFrom(best)
					if !cand.Transfer(r, from, to, 1) {
						continue
					}
					if s := scoreOf(cand); s > bestScore {
						bestScore = s
						best, cand = cand, best
						improved = true
					}
				}
			}
		}
		if !improved {
			return best, bestScore
		}
	}
}

// appendAllocKey appends a compact cache key for alloc to buf.
func appendAllocKey(buf []byte, a resource.Allocation) []byte {
	for _, u := range a {
		buf = append(buf, byte(u), byte(u>>8), ',')
	}
	return buf
}
