// Package resource defines the vocabulary of multi-resource
// partitioning used throughout the CLITE reproduction: the shared
// resource kinds of a chip-multiprocessor server (Table 1 of the
// paper), machine topologies that say how many allocatable units each
// resource has, per-job allocations, and whole-machine partition
// configurations with feasibility checking, enumeration and counting.
package resource

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies one shared server resource that can be partitioned
// among co-located jobs.
type Kind int

// The shared resources from Table 1 of the paper.
const (
	Cores Kind = iota // CPU cores, partitioned by core affinity
	LLCWays
	MemBandwidth
	MemCapacity
	DiskBandwidth
	NetBandwidth
	numKinds
)

// String returns the short human-readable name of the resource.
func (k Kind) String() string {
	switch k {
	case Cores:
		return "cores"
	case LLCWays:
		return "llc-ways"
	case MemBandwidth:
		return "mem-bw"
	case MemCapacity:
		return "mem-cap"
	case DiskBandwidth:
		return "disk-bw"
	case NetBandwidth:
		return "net-bw"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsolationTool names the Linux/Intel isolation mechanism the paper
// uses to enforce a partition of this resource (Table 1).
func (k Kind) IsolationTool() string {
	switch k {
	case Cores:
		return "taskset"
	case LLCWays:
		return "Intel CAT"
	case MemBandwidth:
		return "Intel MBA"
	case MemCapacity:
		return "memory cgroups"
	case DiskBandwidth:
		return "blkio cgroups"
	case NetBandwidth:
		return "qdisc"
	default:
		return "unknown"
	}
}

// AllocationMethod names how the resource is divided (Table 1).
func (k Kind) AllocationMethod() string {
	switch k {
	case Cores:
		return "core affinity"
	case LLCWays:
		return "way partitioning"
	case MemBandwidth:
		return "bandwidth limiting"
	case MemCapacity:
		return "capacity division"
	case DiskBandwidth:
		return "I/O bandwidth limiting"
	case NetBandwidth:
		return "network bandwidth limiting"
	default:
		return "unknown"
	}
}

// Spec describes one partitionable resource dimension of a machine.
type Spec struct {
	Kind      Kind
	Units     int     // number of allocatable units
	UnitValue float64 // physical size of one unit, in UnitLabel units
	UnitLabel string  // e.g. "cores", "ways", "GB/s", "GB"
}

// Topology is the ordered list of partitionable resources on a server.
// All allocation vectors in this package are indexed in topology order.
type Topology []Spec

// Default returns the topology of the paper's testbed (Table 2): an
// Intel Xeon Silver 4114 — 20 logical cores, an 11-way set-associative
// 14 MB LLC, and memory bandwidth, memory capacity and disk bandwidth
// each split into 10 units (the granularity of Intel MBA's 10% steps
// and of the cgroup limits the paper applies).
func Default() Topology {
	return Topology{
		{Kind: Cores, Units: 20, UnitValue: 1, UnitLabel: "cores"},
		{Kind: LLCWays, Units: 11, UnitValue: 14080.0 / 11 / 1024, UnitLabel: "MB"},
		{Kind: MemBandwidth, Units: 10, UnitValue: 2.0, UnitLabel: "GB/s"},
		{Kind: MemCapacity, Units: 10, UnitValue: 4.6, UnitLabel: "GB"},
		{Kind: DiskBandwidth, Units: 10, UnitValue: 0.2, UnitLabel: "GB/s"},
	}
}

// Small returns a reduced three-resource topology used by tests and by
// exhaustive-search experiments where the full space would be
// intractable. It matches the paper's worked example of "three
// resources, each with 10 units".
func Small() Topology {
	return Topology{
		{Kind: Cores, Units: 10, UnitValue: 1, UnitLabel: "cores"},
		{Kind: LLCWays, Units: 10, UnitValue: 1.28, UnitLabel: "MB"},
		{Kind: MemBandwidth, Units: 10, UnitValue: 2.0, UnitLabel: "GB/s"},
	}
}

// Index returns the position of kind in the topology, or -1.
func (t Topology) Index(kind Kind) int {
	for i, s := range t {
		if s.Kind == kind {
			return i
		}
	}
	return -1
}

// TotalUnits returns the unit count of resource r.
func (t Topology) TotalUnits(r int) int { return t[r].Units }

// Dims returns the number of search-space dimensions for nJobs
// co-located jobs: Nres × Njobs (the paper's definition; the sum
// constraint makes Njobs−1 of them free per resource).
func (t Topology) Dims(nJobs int) int { return len(t) * nJobs }

// NormalizeInto maps a job-major unit vector (Config.Vector's layout)
// into the unit cube, dividing each entry by its resource's unit
// count, and returns it in dst (grown when its capacity is short).
// The GP surrogate's inputs, the resilient controller's neighbour
// distances and DOE's response surface all use this one mapping.
func (t Topology) NormalizeInto(dst, v []float64) []float64 {
	if cap(dst) < len(v) {
		dst = make([]float64, len(v))
	}
	dst = dst[:len(v)]
	nres := len(t)
	for i, x := range v {
		dst[i] = x / float64(t[i%nres].Units)
	}
	return dst
}

// ConfigCount returns the total number of feasible partition
// configurations for nJobs jobs, the paper's
// Nconf = ∏_r C(Nunits(r)−1, Njobs−1). It saturates at MaxInt64 on
// overflow.
func (t Topology) ConfigCount(nJobs int) int64 {
	if nJobs <= 0 {
		return 0
	}
	total := int64(1)
	for _, s := range t {
		c := binomial(int64(s.Units-1), int64(nJobs-1))
		if c == 0 {
			return 0
		}
		if total > math.MaxInt64/c {
			return math.MaxInt64
		}
		total *= c
	}
	return total
}

func binomial(n, k int64) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := int64(1)
	for i := int64(1); i <= k; i++ {
		if result > math.MaxInt64/(n-k+i) {
			return math.MaxInt64
		}
		result = result * (n - k + i) / i
	}
	return result
}

// Allocation is one job's share of every resource, in topology order
// and expressed in units.
type Allocation []int

// Clone returns a copy of the allocation.
func (a Allocation) Clone() Allocation {
	c := make(Allocation, len(a))
	copy(c, a)
	return c
}

// Config is a complete partition of the machine: one Allocation per
// co-located job. Jobs[j][r] is the share of resource r given to job j.
type Config struct {
	Jobs []Allocation
}

// NewConfig returns a config with nJobs all-zero allocations over the
// given topology.
func NewConfig(t Topology, nJobs int) Config {
	jobs := make([]Allocation, nJobs)
	for j := range jobs {
		jobs[j] = make(Allocation, len(t))
	}
	return Config{Jobs: jobs}
}

// Clone deep-copies the config.
func (c Config) Clone() Config {
	jobs := make([]Allocation, len(c.Jobs))
	for j, a := range c.Jobs {
		jobs[j] = a.Clone()
	}
	return Config{Jobs: jobs}
}

// CopyFrom overwrites c with src's values, reusing c's storage when
// the shapes match (the scratch-config idiom of the hot paths);
// allocations are only made when c is smaller than src.
func (c *Config) CopyFrom(src Config) {
	if cap(c.Jobs) < len(src.Jobs) {
		c.Jobs = make([]Allocation, len(src.Jobs))
	}
	c.Jobs = c.Jobs[:len(src.Jobs)]
	for j, a := range src.Jobs {
		if cap(c.Jobs[j]) < len(a) {
			c.Jobs[j] = make(Allocation, len(a))
		}
		c.Jobs[j] = c.Jobs[j][:len(a)]
		copy(c.Jobs[j], a)
	}
}

// Reshape sizes c to nJobs allocations of nRes resources each,
// reusing storage like CopyFrom. Contents are unspecified; callers
// must overwrite every entry.
func (c *Config) Reshape(nJobs, nRes int) {
	if cap(c.Jobs) < nJobs {
		c.Jobs = make([]Allocation, nJobs)
	}
	c.Jobs = c.Jobs[:nJobs]
	for j := range c.Jobs {
		if cap(c.Jobs[j]) < nRes {
			c.Jobs[j] = make(Allocation, nRes)
		}
		c.Jobs[j] = c.Jobs[j][:nRes]
	}
}

// NumJobs returns the number of co-located jobs in the config.
func (c Config) NumJobs() int { return len(c.Jobs) }

// Equal reports whether two configs allocate identically.
func (c Config) Equal(o Config) bool {
	if len(c.Jobs) != len(o.Jobs) {
		return false
	}
	for j := range c.Jobs {
		if len(c.Jobs[j]) != len(o.Jobs[j]) {
			return false
		}
		for r := range c.Jobs[j] {
			if c.Jobs[j][r] != o.Jobs[j][r] {
				return false
			}
		}
	}
	return true
}

// Key returns a compact string key for use in maps/dedup caches.
func (c Config) Key() string {
	var b strings.Builder
	for j, a := range c.Jobs {
		if j > 0 {
			b.WriteByte('|')
		}
		for r, u := range a {
			if r > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", u)
		}
	}
	return b.String()
}

// String renders the config for logs: "job0[c=4 w=3 ...] job1[...]".
func (c Config) String() string { return c.Key() }

// Validate checks feasibility against the topology: every job gets at
// least one unit of every resource and each resource's units sum to
// exactly the topology's total.
func (c Config) Validate(t Topology) error {
	for j, a := range c.Jobs {
		if len(a) != len(t) {
			return fmt.Errorf("resource: job %d has %d resource entries, topology has %d", j, len(a), len(t))
		}
	}
	for r, s := range t {
		sum := 0
		for j, a := range c.Jobs {
			if a[r] < 1 {
				return fmt.Errorf("resource: job %d gets %d units of %s, minimum is 1", j, a[r], s.Kind)
			}
			sum += a[r]
		}
		if sum != s.Units {
			return fmt.Errorf("resource: %s units sum to %d, want %d", s.Kind, sum, s.Units)
		}
	}
	return nil
}

// Vector flattens the config to a float64 vector in job-major order
// (job 0's resources, then job 1's, ...), the input representation of
// the Bayesian-optimization surrogate.
func (c Config) Vector() []float64 {
	if len(c.Jobs) == 0 {
		return nil
	}
	v := make([]float64, 0, len(c.Jobs)*len(c.Jobs[0]))
	for _, a := range c.Jobs {
		for _, u := range a {
			v = append(v, float64(u))
		}
	}
	return v
}

// VectorInto is Vector writing into dst (reused when capacity allows)
// — the allocation-free form for hot loops that flatten repeatedly.
func (c Config) VectorInto(dst []float64) []float64 {
	if len(c.Jobs) == 0 {
		return dst[:0]
	}
	n := len(c.Jobs) * len(c.Jobs[0])
	if cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	for _, a := range c.Jobs {
		for _, u := range a {
			dst = append(dst, float64(u))
		}
	}
	return dst
}

// EqualSplitInto is EqualSplit writing into a reused config.
func EqualSplitInto(t Topology, nJobs int, c *Config) {
	c.Reshape(nJobs, len(t))
	for r, s := range t {
		base := s.Units / nJobs
		rem := s.Units % nJobs
		for j := 0; j < nJobs; j++ {
			c.Jobs[j][r] = base
			if j < rem {
				c.Jobs[j][r]++
			}
		}
	}
}

// ExtremumInto is Extremum writing into a reused config.
func ExtremumInto(t Topology, nJobs, favored int, c *Config) {
	c.Reshape(nJobs, len(t))
	for r, s := range t {
		for j := 0; j < nJobs; j++ {
			if j == favored {
				c.Jobs[j][r] = s.Units - (nJobs - 1)
			} else {
				c.Jobs[j][r] = 1
			}
		}
	}
}

// FromVector reconstructs a config from a flattened vector produced by
// Vector (or by the continuous acquisition optimizer before rounding).
// Values are rounded to the nearest integer; it does NOT enforce
// feasibility — use RoundFeasible for that.
func FromVector(t Topology, nJobs int, v []float64) (Config, error) {
	if len(v) != nJobs*len(t) {
		return Config{}, fmt.Errorf("resource: vector length %d, want %d", len(v), nJobs*len(t))
	}
	c := NewConfig(t, nJobs)
	for j := 0; j < nJobs; j++ {
		for r := range t {
			c.Jobs[j][r] = int(math.Round(v[j*len(t)+r]))
		}
	}
	return c, nil
}

// EqualSplit divides every resource as evenly as possible among nJobs
// jobs (the first kind of bootstrapping sample in Sec. 4 of the
// paper). Remainder units go to the lowest-indexed jobs.
func EqualSplit(t Topology, nJobs int) Config {
	c := NewConfig(t, nJobs)
	for r, s := range t {
		base := s.Units / nJobs
		rem := s.Units % nJobs
		for j := 0; j < nJobs; j++ {
			c.Jobs[j][r] = base
			if j < rem {
				c.Jobs[j][r]++
			}
		}
	}
	return c
}

// Extremum gives job `favored` the maximum possible allocation of
// every resource while every other job keeps exactly one unit (the
// second kind of bootstrapping sample in Sec. 4).
func Extremum(t Topology, nJobs, favored int) Config {
	c := NewConfig(t, nJobs)
	for r, s := range t {
		for j := 0; j < nJobs; j++ {
			if j == favored {
				c.Jobs[j][r] = s.Units - (nJobs - 1)
			} else {
				c.Jobs[j][r] = 1
			}
		}
	}
	return c
}

// MaxUnitsPerJob returns the paper's Eq. 5 upper bound for one job's
// share of resource r: Nunits(r) − Njobs + 1.
func MaxUnitsPerJob(t Topology, nJobs, r int) int {
	return t[r].Units - nJobs + 1
}

// Distance returns the Euclidean distance between two configs in unit
// space, used by RAND+ to discard near-duplicate samples.
func Distance(a, b Config) float64 {
	var sum float64
	for j := range a.Jobs {
		for r := range a.Jobs[j] {
			d := float64(a.Jobs[j][r] - b.Jobs[j][r])
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// Transfer moves n units of resource r from job `from` to job `to`,
// returning false (and leaving c untouched) if that would drop the
// donor below one unit. PARTIES' FSM and GENETIC's mutation operator
// are built on this primitive.
func (c Config) Transfer(r, from, to, n int) bool {
	if n <= 0 || from == to {
		return false
	}
	if c.Jobs[from][r]-n < 1 {
		return false
	}
	c.Jobs[from][r] -= n
	c.Jobs[to][r] += n
	return true
}
