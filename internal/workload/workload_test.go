package workload

import (
	"math"
	"testing"
	"testing/quick"

	"clite/internal/resource"
)

func topo() resource.Topology { return resource.Default() }

// allocWith builds a physical allocation directly for model tests.
func allocWith(cores int, cacheMB, bw, mem, disk float64) Alloc {
	return Alloc{Cores: cores, CacheMB: cacheMB, MemBwGB: bw, MemGB: mem, DiskBw: disk}
}

func ample(cores int) Alloc { return allocWith(cores, 14, 20, 40, 2) }

func TestRegistryShape(t *testing.T) {
	if got := len(LC()); got != 5 {
		t.Errorf("LC count = %d, want 5 (Table 3)", got)
	}
	if got := len(BG()); got != 6 {
		t.Errorf("BG count = %d, want 6 (Table 3)", got)
	}
	for _, p := range All() {
		if p.Name == "" || p.Desc == "" {
			t.Errorf("profile %+v missing name/desc", p)
		}
		switch p.Class {
		case LatencyCritical:
			if p.BaseServiceSec <= 0 {
				t.Errorf("%s: LC profile needs BaseServiceSec", p.Name)
			}
		case Background:
			if p.BaseOpSec <= 0 {
				t.Errorf("%s: BG profile needs BaseOpSec", p.Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("memcached")
	if err != nil || p.Name != "memcached" {
		t.Fatalf("ByName failed: %v %v", p, err)
	}
	if _, err := ByName("nginx"); err == nil {
		t.Error("expected error for unknown workload")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on unknown name")
		}
	}()
	MustByName("nginx")
}

func TestAcronyms(t *testing.T) {
	if Acronym("streamcluster") != "SC" || Acronym("blackscholes") != "BS" {
		t.Error("missing paper acronyms")
	}
	if Acronym("memcached") != "memcached" {
		t.Error("LC jobs pass through unchanged")
	}
}

func TestClassString(t *testing.T) {
	if LatencyCritical.String() != "latency-critical" || Background.String() != "background" {
		t.Error("bad class strings")
	}
}

func TestPhysicalConversion(t *testing.T) {
	tp := topo()
	cfg := resource.EqualSplit(tp, 2)
	a := Physical(tp, cfg.Jobs[0])
	if a.Cores != 10 {
		t.Errorf("cores = %d, want 10", a.Cores)
	}
	// 6 of 11 ways of a 14080 KB cache.
	wantMB := 6 * (14080.0 / 11 / 1024)
	if math.Abs(a.CacheMB-wantMB) > 1e-9 {
		t.Errorf("cacheMB = %v, want %v", a.CacheMB, wantMB)
	}
	if a.MemBwGB != 10 || a.MemGB != 23 || a.DiskBw != 1.0 {
		t.Errorf("bw/mem/disk = %v/%v/%v", a.MemBwGB, a.MemGB, a.DiskBw)
	}
}

func TestPhysicalDefaultsAmpleForMissingResources(t *testing.T) {
	tp := resource.Small() // no capacity/disk dimensions
	cfg := resource.EqualSplit(tp, 2)
	a := Physical(tp, cfg.Jobs[0])
	if a.MemGB < 1e5 || a.DiskBw < 1e5 {
		t.Error("absent resources should default to ample")
	}
}

func TestFullMachine(t *testing.T) {
	a := FullMachine(topo())
	if a.Cores != 20 || a.MemBwGB != 20 || a.MemGB != 46 {
		t.Errorf("full machine = %+v", a)
	}
}

func TestMissRateMonotoneAndBounded(t *testing.T) {
	for _, p := range All() {
		prev := 1.1
		for c := 0.5; c <= 20; c += 0.5 {
			m := p.MissRate(c)
			if m < p.MinMissRate-1e-12 || m > 1 {
				t.Fatalf("%s: miss rate %v out of bounds at %v MB", p.Name, m, c)
			}
			if m > prev+1e-12 {
				t.Fatalf("%s: miss rate not monotone at %v MB", p.Name, c)
			}
			prev = m
		}
	}
}

func TestP95DecreasesWithCores(t *testing.T) {
	p := MustByName("img-dnn")
	lambda := 2000.0
	prev := math.Inf(1)
	for cores := 2; cores <= 14; cores += 2 {
		v := p.P95(ample(cores), lambda, 2.0)
		if v > prev+1e-9 {
			t.Fatalf("p95 should not increase with cores: %v at %d", v, cores)
		}
		prev = v
	}
}

func TestP95IncreasesWithLoad(t *testing.T) {
	p := MustByName("memcached")
	alloc := ample(10)
	prev := 0.0
	for _, lambda := range []float64{1000, 5000, 10000, 20000, 26000, 30000} {
		v := p.P95(alloc, lambda, 2.0)
		if v < prev-1e-12 {
			t.Fatalf("p95 should grow with load: %v at λ=%v", v, lambda)
		}
		prev = v
	}
}

// TestResourceEquivalenceClass reproduces the paper's Fig. 1 property:
// a cache-squeezed allocation can be compensated with more memory
// bandwidth, and a bandwidth-squeezed one with more cache.
func TestResourceEquivalenceClass(t *testing.T) {
	p := MustByName("masstree")
	lambda := 4000.0
	squeezedCache := p.P95(allocWith(8, 2, 6, 40, 2), lambda, 2.0)
	cacheCompensatedWithBw := p.P95(allocWith(8, 2, 16, 40, 2), lambda, 2.0)
	moreCacheLessBw := p.P95(allocWith(8, 10, 6, 40, 2), lambda, 2.0)
	if cacheCompensatedWithBw >= squeezedCache {
		t.Errorf("bandwidth should compensate for cache: %v vs %v", cacheCompensatedWithBw, squeezedCache)
	}
	if moreCacheLessBw >= squeezedCache {
		t.Errorf("cache should compensate for bandwidth pressure: %v vs %v", moreCacheLessBw, squeezedCache)
	}
}

// TestSensitivityProfiles pins the qualitative sensitivities the paper
// relies on in Sec. 5.2.
func TestSensitivityProfiles(t *testing.T) {
	// Relative p95 improvement when a resource share doubles.
	gain := func(p *Profile, lambda float64, base, improved Alloc) float64 {
		b := p.P95(base, lambda, 2.0)
		i := p.P95(improved, lambda, 2.0)
		return (b - i) / b
	}
	// masstree reacts more to bandwidth than img-dnn does.
	mtBw := gain(MustByName("masstree"), 4000, allocWith(8, 5, 5, 40, 2), allocWith(8, 5, 12, 40, 2))
	idBw := gain(MustByName("img-dnn"), 1800, allocWith(8, 5, 5, 40, 2), allocWith(8, 5, 12, 40, 2))
	if mtBw <= idBw {
		t.Errorf("masstree bw gain %v should exceed img-dnn's %v", mtBw, idBw)
	}
	// img-dnn reacts more to cache than memcached does.
	idCache := gain(MustByName("img-dnn"), 1800, allocWith(8, 2, 12, 40, 2), allocWith(8, 10, 12, 40, 2))
	mcCache := gain(MustByName("memcached"), 15000, allocWith(8, 2, 12, 40, 2), allocWith(8, 10, 12, 40, 2))
	if idCache <= mcCache {
		t.Errorf("img-dnn cache gain %v should exceed memcached's %v", idCache, mcCache)
	}
	// memcached is capacity-hungry: squeezing memory below footprint hurts badly.
	mcCap := gain(MustByName("memcached"), 15000, allocWith(8, 5, 12, 8, 2), allocWith(8, 5, 12, 36, 2))
	if mcCap < 0.2 {
		t.Errorf("memcached capacity gain = %v, want substantial", mcCap)
	}
}

func TestPagingCouplesToDiskBandwidth(t *testing.T) {
	p := MustByName("specjbb") // 22 GB footprint
	lambda := 3000.0
	paged := p.P95(allocWith(10, 7, 10, 8, 0.2), lambda, 2.0)
	pagedFastDisk := p.P95(allocWith(10, 7, 10, 8, 2.0), lambda, 2.0)
	unpaged := p.P95(allocWith(10, 7, 10, 24, 0.2), lambda, 2.0)
	if pagedFastDisk >= paged {
		t.Errorf("more disk bandwidth should soften paging: %v vs %v", pagedFastDisk, paged)
	}
	if unpaged >= pagedFastDisk {
		t.Errorf("enough capacity should beat paging entirely: %v vs %v", unpaged, pagedFastDisk)
	}
}

func TestXapianNeedsDiskBandwidth(t *testing.T) {
	p := MustByName("xapian")
	lambda := 1500.0
	starved := p.P95(allocWith(10, 7, 10, 16, 0.2), lambda, 2.0)
	fed := p.P95(allocWith(10, 7, 10, 16, 1.0), lambda, 2.0)
	if fed >= starved {
		t.Errorf("xapian should benefit from disk bandwidth: %v vs %v", fed, starved)
	}
}

func TestThroughputMonotoneInCores(t *testing.T) {
	for _, p := range BG() {
		prev := 0.0
		for cores := 1; cores <= 20; cores++ {
			v := p.Throughput(ample(cores))
			if v < prev-1e-9 {
				t.Fatalf("%s: throughput fell with cores at %d", p.Name, cores)
			}
			prev = v
		}
	}
}

func TestBGSensitivities(t *testing.T) {
	relGain := func(p *Profile, base, improved Alloc) float64 {
		b := p.Throughput(base)
		return (p.Throughput(improved) - b) / b
	}
	// streamcluster is the cache-hungry one; swaptions barely cares.
	scCache := relGain(MustByName("streamcluster"), allocWith(8, 2, 10, 40, 2), allocWith(8, 12, 10, 40, 2))
	swCache := relGain(MustByName("swaptions"), allocWith(8, 2, 10, 40, 2), allocWith(8, 12, 10, 40, 2))
	if scCache <= 4*swCache {
		t.Errorf("streamcluster cache gain %v should dwarf swaptions' %v", scCache, swCache)
	}
	// canneal is the bandwidth-hungry one.
	cnBw := relGain(MustByName("canneal"), allocWith(8, 5, 3, 40, 2), allocWith(8, 5, 12, 40, 2))
	bsBw := relGain(MustByName("blackscholes"), allocWith(8, 5, 3, 40, 2), allocWith(8, 5, 12, 40, 2))
	if cnBw <= 4*bsBw {
		t.Errorf("canneal bw gain %v should dwarf blackscholes' %v", cnBw, bsBw)
	}
}

func TestIsolationThroughputIsUpperBound(t *testing.T) {
	tp := topo()
	for _, p := range BG() {
		iso := p.Throughput(FullMachine(tp))
		cfg := resource.EqualSplit(tp, 3)
		part := p.Throughput(Physical(tp, cfg.Jobs[0]))
		if part > iso*1.0001 {
			t.Errorf("%s: partitioned throughput %v exceeds isolation %v", p.Name, part, iso)
		}
	}
}

func TestThroughputNeverExceedsIsolationProperty(t *testing.T) {
	tp := topo()
	sc := MustByName("streamcluster")
	iso := sc.Throughput(FullMachine(tp))
	f := func(seed int64) bool {
		rngCfg := resource.Random(tp, 3, rngFor(seed))
		v := sc.Throughput(Physical(tp, rngCfg.Jobs[0]))
		return v > 0 && v <= iso*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClassPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	assertPanics("Queue on BG", func() {
		MustByName("canneal").Queue(ample(4), 100)
	})
	assertPanics("Throughput on LC", func() {
		MustByName("xapian").Throughput(ample(4))
	})
}

func TestQueueFixedPointFinite(t *testing.T) {
	f := func(seed int64, loadByte uint8) bool {
		tp := topo()
		cfg := resource.Random(tp, 3, rngFor(seed))
		lambda := 100 + float64(loadByte)*100
		for _, p := range LC() {
			q := p.Queue(Physical(tp, cfg.Jobs[0]), lambda)
			if q.Servers < 1 || math.IsNaN(q.ServiceRate) || q.ServiceRate <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
