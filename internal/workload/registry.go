package workload

import (
	"fmt"
	"sort"
)

// The profiles below are the Table 3 workloads. Absolute constants are
// calibrated so that, on the default topology, each workload's
// isolation knee (Fig. 6) and its dominant resource sensitivity match
// the paper's qualitative characterization:
//
//   - img-dnn     : compute- and cache-sensitive (Sec. 5.2: "more
//     sensitive on number of cores and L3 cache ways than memory
//     bandwidth"), moderate per-request cost;
//   - masstree    : memory-bandwidth-bound key-value store (Sec. 5.2:
//     "masstree is sensitive on memory bandwidth"), working set larger
//     than the LLC;
//   - memcached   : very short requests, core- and memory-capacity-
//     hungry, high maximum QPS;
//   - specjbb     : Java middleware, large heap (capacity-sensitive),
//     balanced core/cache profile;
//   - xapian      : online search over an on-disk index — the only LC
//     job with intrinsic disk-bandwidth demand;
//   - blackscholes, swaptions       : CPU-bound BG jobs;
//   - canneal                        : bandwidth-hungry BG job with a
//     working set far beyond the LLC;
//   - streamcluster                  : strongly LLC-sensitive BG job
//     (the one CLITE gives extra ways in Fig. 9a);
//   - fluidanimate, freqmine         : mixed-sensitivity BG jobs.
func registry() []*Profile {
	return []*Profile{
		{
			Name: "img-dnn", Class: LatencyCritical,
			Desc:       "Image recognition (Tailbench)",
			MaxThreads: 14, BaseCPI: 1.0, MemCPI: 2.0,
			WorkingSetMB: 11, MinMissRate: 0.05,
			BytesPerOpGB: 0.002, FootprintGB: 6,
			BaseServiceSec: 0.003,
		},
		{
			Name: "masstree", Class: LatencyCritical,
			Desc:       "Key-value store (Tailbench)",
			MaxThreads: 16, BaseCPI: 0.8, MemCPI: 2.5,
			WorkingSetMB: 24, MinMissRate: 0.12,
			BytesPerOpGB: 0.005, FootprintGB: 10,
			BaseServiceSec: 0.0008,
		},
		{
			Name: "memcached", Class: LatencyCritical,
			Desc:       "Key-value store with Mutilate load generator",
			MaxThreads: 20, BaseCPI: 0.6, MemCPI: 1.4,
			WorkingSetMB: 2.5, MinMissRate: 0.08,
			BytesPerOpGB: 0.0004, FootprintGB: 16,
			BaseServiceSec: 0.00035,
		},
		{
			Name: "specjbb", Class: LatencyCritical,
			Desc:       "Java middleware (Tailbench)",
			MaxThreads: 20, BaseCPI: 0.9, MemCPI: 1.8,
			WorkingSetMB: 9, MinMissRate: 0.06,
			BytesPerOpGB: 0.0012, FootprintGB: 20,
			BaseServiceSec: 0.0012,
		},
		{
			Name: "xapian", Class: LatencyCritical,
			Desc:       "Online search, English Wikipedia (Tailbench)",
			MaxThreads: 20, BaseCPI: 1.1, MemCPI: 1.6,
			WorkingSetMB: 10, MinMissRate: 0.07,
			BytesPerOpGB: 0.0009, FootprintGB: 8,
			DiskBwNeedGB: 0.35, BaseServiceSec: 0.004,
		},
		{
			Name: "blackscholes", Class: Background,
			Desc:       "Option pricing with Black-Scholes PDE (PARSEC)",
			MaxThreads: 20, BaseCPI: 1.0, MemCPI: 0.8,
			WorkingSetMB: 1, MinMissRate: 0.02,
			BytesPerOpGB: 0.000002, FootprintGB: 2,
			BaseOpSec: 0.00002,
		},
		{
			Name: "canneal", Class: Background,
			Desc:       "Simulated cache-aware annealing for chip design (PARSEC)",
			MaxThreads: 20, BaseCPI: 0.7, MemCPI: 3.0,
			WorkingSetMB: 28, MinMissRate: 0.25,
			BytesPerOpGB: 0.0001, FootprintGB: 12,
			BaseOpSec: 0.00004,
		},
		{
			Name: "fluidanimate", Class: Background,
			Desc:       "Fluid dynamics for animation (PARSEC)",
			MaxThreads: 20, BaseCPI: 0.9, MemCPI: 1.5,
			WorkingSetMB: 5, MinMissRate: 0.05,
			BytesPerOpGB: 0.00001, FootprintGB: 5,
			BaseOpSec: 0.00003,
		},
		{
			Name: "freqmine", Class: Background,
			Desc:       "Frequent itemset mining (PARSEC)",
			MaxThreads: 20, BaseCPI: 1.0, MemCPI: 2.0,
			WorkingSetMB: 10, MinMissRate: 0.05,
			BytesPerOpGB: 0.000008, FootprintGB: 8,
			BaseOpSec: 0.00005,
		},
		{
			Name: "streamcluster", Class: Background,
			Desc:       "Online clustering of an input stream (PARSEC)",
			MaxThreads: 20, BaseCPI: 0.8, MemCPI: 2.8,
			WorkingSetMB: 13, MinMissRate: 0.08,
			BytesPerOpGB: 0.000015, FootprintGB: 4,
			BaseOpSec: 0.00004,
		},
		{
			Name: "swaptions", Class: Background,
			Desc:       "Pricing of a portfolio of swaptions (PARSEC)",
			MaxThreads: 20, BaseCPI: 1.0, MemCPI: 0.5,
			WorkingSetMB: 0.5, MinMissRate: 0.01,
			BytesPerOpGB: 0.000001, FootprintGB: 2,
			BaseOpSec: 0.000025,
		},
	}
}

// Acronyms used by the paper's Fig. 14 for BG jobs.
var bgAcronyms = map[string]string{
	"blackscholes":  "BS",
	"canneal":       "CN",
	"fluidanimate":  "FA",
	"freqmine":      "FM",
	"streamcluster": "SC",
	"swaptions":     "SW",
}

// Acronym returns the paper's short name for a BG workload ("BS",
// "SC", ...), or the full name for workloads without one.
func Acronym(name string) string {
	if a, ok := bgAcronyms[name]; ok {
		return a
	}
	return name
}

// table is the registry, built once per process. Profiles are
// immutable after construction, so every lookup shares them.
var table = registry()

// All returns every workload profile, LC first, in stable order.
func All() []*Profile {
	ps := append([]*Profile(nil), table...)
	sort.SliceStable(ps, func(i, j int) bool {
		if ps[i].Class != ps[j].Class {
			return ps[i].Class == LatencyCritical
		}
		return ps[i].Name < ps[j].Name
	})
	return ps
}

// LC returns the latency-critical profiles in name order.
func LC() []*Profile {
	var out []*Profile
	for _, p := range All() {
		if p.Class == LatencyCritical {
			out = append(out, p)
		}
	}
	return out
}

// BG returns the background profiles in name order.
func BG() []*Profile {
	var out []*Profile
	for _, p := range All() {
		if p.Class == Background {
			out = append(out, p)
		}
	}
	return out
}

// ByName looks a profile up by its Table 3 name.
func ByName(name string) (*Profile, error) {
	for _, p := range table {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// MustByName is ByName for static workload names in tests and
// examples; it panics on unknown names.
func MustByName(name string) *Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
