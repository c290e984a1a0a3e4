// Package workload models the latency-critical (Tailbench) and
// background (PARSEC) workloads of the paper's Table 3 as analytic
// performance models over resource allocations.
//
// The controller under study treats workloads as black boxes: it only
// ever observes (resource partition → p95 latency / throughput). What
// matters for reproducing the paper is therefore the *shape* of that
// response surface, and the shapes the paper exploits all arise from a
// small set of architectural mechanisms that this package models
// explicitly:
//
//   - cache ways ↔ memory bandwidth equivalence: fewer LLC ways mean a
//     higher miss rate, which raises memory traffic, which makes the
//     job need more bandwidth (Fig. 1's QoS-safe region curvature);
//   - cores ↔ cache equivalence: misses raise CPI, so a job can trade
//     more cores against more cache to reach the same service rate;
//   - memory capacity → disk coupling: a resident set larger than the
//     allocated capacity pages through the disk-bandwidth share;
//   - diminishing returns in every dimension and per-job parallelism
//     ceilings.
//
// Each model computes, for a given physical allocation, an effective
// cycles-per-instruction and from it an M/M/c service configuration
// (for LC jobs) or a normalized throughput (for BG jobs).
package workload

import (
	"fmt"
	"math"

	"clite/internal/latsim"
	"clite/internal/resource"
)

// Class distinguishes latency-critical from background workloads.
type Class int

const (
	// LatencyCritical jobs have a p95 QoS target and an offered load.
	LatencyCritical Class = iota
	// Background jobs run flat out; their metric is throughput
	// normalized to isolation.
	Background
)

// String names the class.
func (c Class) String() string {
	if c == LatencyCritical {
		return "latency-critical"
	}
	return "background"
}

// Profile is the static performance model of one workload. The fields
// are physical parameters; the derived QoS target and maximum load of
// LC workloads are calibrated by internal/qos exactly as the paper
// derives them (knee of the isolation QPS-vs-p95 curve, Fig. 6).
type Profile struct {
	Name  string
	Class Class
	Desc  string // Table 3 description

	// Compute.
	MaxThreads int     // parallelism ceiling (extra cores beyond this are wasted)
	BaseCPI    float64 // CPI with all memory references hitting cache
	MemCPI     float64 // CPI added per unit miss intensity

	// Cache behaviour.
	WorkingSetMB float64 // LLC footprint; allocations beyond it stop helping
	MinMissRate  float64 // compulsory misses that no amount of cache removes

	// Memory traffic.
	BytesPerOpGB float64 // GB of memory traffic per request/op at miss rate 1

	// Memory capacity.
	FootprintGB float64 // resident set; less capacity than this pages to disk

	// Disk.
	DiskBwNeedGB float64 // GB/s of intrinsic disk traffic (I/O, logging)

	// LC-only: per-request service demand on one core at best-case CPI.
	BaseServiceSec float64

	// BG-only: per-op compute demand on one core at best-case CPI.
	BaseOpSec float64
}

// pageCPIFactor scales how violently paging inflates CPI. One page
// fault costs orders of magnitude more than a cache miss.
const pageCPIFactor = 5.0

// Alloc is a physical resource allocation (units converted through the
// topology's unit sizes). Missing resources default to "ample".
type Alloc struct {
	Cores   int
	CacheMB float64
	MemBwGB float64 // GB/s
	MemGB   float64
	DiskBw  float64 // GB/s
}

// Physical converts one job's unit allocation under a topology into
// physical quantities. Resources absent from the topology are treated
// as unconstrained (the paper's testbed always partitions all five).
func Physical(t resource.Topology, a resource.Allocation) Alloc {
	phys := Alloc{
		Cores:   1,
		CacheMB: 1e6,
		MemBwGB: 1e6,
		MemGB:   1e6,
		DiskBw:  1e6,
	}
	for r, spec := range t {
		amount := float64(a[r]) * spec.UnitValue
		switch spec.Kind {
		case resource.Cores:
			phys.Cores = a[r]
		case resource.LLCWays:
			phys.CacheMB = amount
		case resource.MemBandwidth:
			phys.MemBwGB = amount
		case resource.MemCapacity:
			phys.MemGB = amount
		case resource.DiskBandwidth:
			phys.DiskBw = amount
		}
	}
	return phys
}

// FullMachine returns the allocation of the entire topology, used for
// isolation baselines.
func FullMachine(t resource.Topology) Alloc {
	full := resource.NewConfig(t, 1)
	for r := range t {
		full.Jobs[0][r] = t[r].Units
	}
	return Physical(t, full.Jobs[0])
}

// MissRate returns the LLC miss ratio under the given cache share: an
// exponential fill of the working set floored at the compulsory rate.
func (p *Profile) MissRate(cacheMB float64) float64 {
	if p.WorkingSetMB <= 0 {
		return p.MinMissRate
	}
	fill := 1 - math.Exp(-2.2*cacheMB/p.WorkingSetMB)
	miss := 1 - fill
	if miss < 0 {
		miss = 0
	}
	return p.MinMissRate + (1-p.MinMissRate)*miss
}

// refCPI is the best-case CPI used to normalize service demand: the
// CPI at compulsory miss rate with no bandwidth or paging stretch.
func (p *Profile) refCPI() float64 {
	return p.BaseCPI + p.MemCPI*p.MinMissRate
}

// cpi computes the effective CPI for a given miss rate, memory-traffic
// demand (GB/s), and allocation. It implements the coupling chain:
// misses generate traffic; traffic beyond the bandwidth share stalls;
// a resident set beyond the capacity share pages through the disk
// share.
func (p *Profile) cpi(miss, trafficGB float64, alloc Alloc) float64 {
	bwStretch := 1.0
	if alloc.MemBwGB > 0 && trafficGB > alloc.MemBwGB {
		bwStretch = trafficGB / alloc.MemBwGB
	}
	pageFrac := 0.0
	if alloc.MemGB < p.FootprintGB && p.FootprintGB > 0 {
		pageFrac = 1 - alloc.MemGB/p.FootprintGB
	}
	diskStretch := 1.0
	// A paging job sustains swap traffic proportional to how many
	// cores keep touching evicted pages, plus a share of its memory
	// traffic that now round-trips through the swap device.
	diskDemand := p.DiskBwNeedGB + pageFrac*(0.08*float64(alloc.Cores)+0.25*trafficGB)
	if alloc.DiskBw > 0 && diskDemand > alloc.DiskBw {
		diskStretch = diskDemand / alloc.DiskBw
	}
	memComponent := p.MemCPI * miss * bwStretch
	pageComponent := pageCPIFactor * p.MemCPI * pageFrac * diskStretch
	ioComponent := 0.0
	if p.DiskBwNeedGB > 0 {
		// Intrinsic I/O slows the job when its disk share is squeezed.
		ioComponent = 0.35 * p.BaseCPI * (diskStretch - 1)
	}
	return p.BaseCPI + memComponent + pageComponent + ioComponent
}

// servers returns the usable parallelism of the allocation.
func (p *Profile) servers(alloc Alloc) int {
	s := alloc.Cores
	if p.MaxThreads > 0 && s > p.MaxThreads {
		s = p.MaxThreads
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Queue resolves the M/M/c station an LC workload presents under the
// allocation at offered load lambda (requests/second). Because memory
// traffic depends on achieved throughput, which depends on the service
// rate, which depends on traffic, it iterates the fixed point a few
// rounds (it contracts quickly).
func (p *Profile) Queue(alloc Alloc, lambda float64) latsim.Queue {
	if p.Class != LatencyCritical {
		panic(fmt.Sprintf("workload: Queue called on background job %s", p.Name))
	}
	miss := p.MissRate(alloc.CacheMB)
	s := p.servers(alloc)
	x := lambda
	var mu float64
	for i := 0; i < 16; i++ {
		traffic := x * p.BytesPerOpGB * miss
		c := p.cpi(miss, traffic, alloc)
		mu = 1 / (p.BaseServiceSec * c / p.refCPI())
		cap := float64(s) * mu
		next := lambda
		if next > cap {
			next = cap
		}
		x = 0.5 * (x + next) // damping keeps the iteration from oscillating
	}
	return latsim.Queue{Servers: s, ServiceRate: mu}
}

// P95 returns the steady-state 95th-percentile latency of the LC
// workload under the allocation at offered load lambda, as an
// observation window of the given length would ideally report it.
func (p *Profile) P95(alloc Alloc, lambda, window float64) float64 {
	return p.Queue(alloc, lambda).P95(lambda, window)
}

// Throughput returns a BG workload's throughput (ops/second) under the
// allocation. BG jobs run work-conserving on all their cores.
func (p *Profile) Throughput(alloc Alloc) float64 {
	if p.Class != Background {
		panic(fmt.Sprintf("workload: Throughput called on LC job %s", p.Name))
	}
	miss := p.MissRate(alloc.CacheMB)
	s := p.servers(alloc)
	// Traffic is generated by every active core at its achieved speed;
	// fixed point as for Queue, damped against oscillation.
	speed := 1.0
	for i := 0; i < 16; i++ {
		perCoreOps := speed / p.BaseOpSec // ops/s/core at current speed
		traffic := float64(s) * perCoreOps * p.BytesPerOpGB * miss
		c := p.cpi(miss, traffic, alloc)
		speed = 0.5 * (speed + p.refCPI()/c)
	}
	return float64(s) * speed / p.BaseOpSec
}
