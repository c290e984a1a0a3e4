package server

import (
	"math"
	"strings"
	"testing"

	"clite/internal/resource"
	"clite/internal/stats"
	"clite/internal/telemetry"
	"clite/internal/workload"
)

func newTestMachine(t *testing.T, seed int64) *Machine {
	t.Helper()
	return New(resource.Default(), DefaultSpec(), seed)
}

func placeMix(t *testing.T, m *Machine) {
	t.Helper()
	if _, err := m.AddLC("memcached", 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddLC("img-dnn", 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBG("streamcluster"); err != nil {
		t.Fatal(err)
	}
}

func TestTable2Rendering(t *testing.T) {
	out := DefaultSpec().Table2()
	for _, want := range []string{"Xeon", "20 Cores (10 physical cores)", "14080 KB (11-way set associative)", "46 GB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestAddJobValidation(t *testing.T) {
	m := newTestMachine(t, 1)
	if _, err := m.AddLC("canneal", 0.5); err == nil {
		t.Error("AddLC should reject BG workloads")
	}
	if _, err := m.AddBG("memcached"); err == nil {
		t.Error("AddBG should reject LC workloads")
	}
	if _, err := m.AddLC("nope", 0.5); err == nil {
		t.Error("AddLC should reject unknown workloads")
	}
	if _, err := m.AddLC("memcached", 0); err == nil {
		t.Error("AddLC should reject zero load")
	}
	if _, err := m.AddLC("memcached", 2.0); err == nil {
		t.Error("AddLC should reject absurd load")
	}
}

func TestAddLCCalibratesOnce(t *testing.T) {
	m := newTestMachine(t, 1)
	idx, err := m.AddLC("memcached", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	job := m.Jobs()[idx]
	if job.MaxQPS <= 0 || job.QoS <= 0 {
		t.Fatalf("job not calibrated: %+v", job)
	}
	if got := job.Lambda(); got != 0.4*job.MaxQPS {
		t.Errorf("Lambda = %v", got)
	}
	if cal, err := Calibrate(job.Workload, m.Topology()); err != nil || cal.MaxQPS != job.MaxQPS || cal.QoSTarget != job.QoS {
		t.Errorf("job %+v does not carry the memo's calibration %+v (err %v)", job, cal, err)
	}
	// Second instance reuses the cache (same numbers).
	idx2, _ := m.AddLC("memcached", 0.1)
	if m.Jobs()[idx2].MaxQPS != job.MaxQPS {
		t.Error("cached calibration should be reused")
	}
}

func TestAddBGSamplesIsoPerf(t *testing.T) {
	m := newTestMachine(t, 1)
	idx, err := m.AddBG("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs()[idx].IsoPerf <= 0 {
		t.Error("BG job should have isolation throughput sampled")
	}
	if m.Jobs()[idx].IsLC() {
		t.Error("BG job misclassified")
	}
}

func TestObserveShapesAndClock(t *testing.T) {
	m := newTestMachine(t, 42)
	placeMix(t, m)
	cfg := resource.EqualSplit(m.Topology(), 3)
	obs, err := m.Observe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.P95) != 3 || len(obs.Throughput) != 3 || len(obs.NormPerf) != 3 {
		t.Fatalf("bad observation shape: %+v", obs)
	}
	// LC jobs have p95, no throughput; BG the reverse.
	if obs.P95[0] <= 0 || obs.Throughput[0] != 0 {
		t.Errorf("LC measurement wrong: p95=%v thr=%v", obs.P95[0], obs.Throughput[0])
	}
	if obs.Throughput[2] <= 0 || obs.P95[2] != 0 {
		t.Errorf("BG measurement wrong: p95=%v thr=%v", obs.P95[2], obs.Throughput[2])
	}
	if !obs.QoSMet[2] {
		t.Error("BG jobs always count as QoS-met")
	}
	if m.Clock() != DefaultWindow || m.Observations() != 1 {
		t.Errorf("clock=%v obs=%d", m.Clock(), m.Observations())
	}
	if m.ActuationCost() <= 0 {
		t.Error("actuation cost should accrue")
	}
	if obs.At != m.Clock() {
		t.Error("observation timestamp should match the clock")
	}
}

func TestObserveErrors(t *testing.T) {
	m := newTestMachine(t, 1)
	if _, err := m.Observe(resource.EqualSplit(m.Topology(), 2)); err == nil {
		t.Error("observe with no jobs should fail")
	}
	placeMix(t, m)
	if _, err := m.Observe(resource.EqualSplit(m.Topology(), 2)); err == nil {
		t.Error("job-count mismatch should fail")
	}
	bad := resource.EqualSplit(m.Topology(), 3)
	bad.Jobs[0][0] = 0
	bad.Jobs[1][0] += 1
	if _, err := m.Observe(bad); err == nil {
		t.Error("infeasible config should fail")
	}
}

func TestObserveIdealIsDeterministicAndFree(t *testing.T) {
	m := newTestMachine(t, 7)
	placeMix(t, m)
	cfg := resource.EqualSplit(m.Topology(), 3)
	a, err := m.ObserveIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.ObserveIdeal(cfg)
	for i := range a.P95 {
		if a.P95[i] != b.P95[i] || a.Throughput[i] != b.Throughput[i] {
			t.Fatal("ideal observation must be deterministic")
		}
	}
	if m.Clock() != 0 || m.Observations() != 0 {
		t.Error("ideal observation must not consume time")
	}
}

func TestObserveNoiseIsBoundedAroundIdeal(t *testing.T) {
	m := newTestMachine(t, 99)
	placeMix(t, m)
	cfg := resource.EqualSplit(m.Topology(), 3)
	ideal, _ := m.ObserveIdeal(cfg)
	var ratios []float64
	for i := 0; i < 200; i++ {
		obs, err := m.Observe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, obs.P95[0]/ideal.P95[0])
	}
	mean := stats.Mean(ratios)
	if mean < 0.9 || mean > 1.1 {
		t.Errorf("noisy p95 should center on ideal: mean ratio %v", mean)
	}
	if stats.StdDev(ratios) > 0.25 {
		t.Errorf("noise too large: %v", stats.StdDev(ratios))
	}
}

func TestBetterAllocationImprovesNormPerf(t *testing.T) {
	m := newTestMachine(t, 3)
	placeMix(t, m)
	topo := m.Topology()
	generous := resource.Extremum(topo, 3, 2) // all to streamcluster
	stingy := resource.Extremum(topo, 3, 0)   // all to memcached
	a, _ := m.ObserveIdeal(generous)
	b, _ := m.ObserveIdeal(stingy)
	if a.NormPerf[2] <= b.NormPerf[2] {
		t.Errorf("streamcluster should prefer the generous split: %v vs %v", a.NormPerf[2], b.NormPerf[2])
	}
	if a.NormPerf[2] > 1.001 {
		t.Errorf("normalized perf should not exceed isolation: %v", a.NormPerf[2])
	}
}

func TestSetLoadAffectsLatency(t *testing.T) {
	m := newTestMachine(t, 5)
	placeMix(t, m)
	cfg := resource.EqualSplit(m.Topology(), 3)
	low, _ := m.ObserveIdeal(cfg)
	if err := m.SetLoad(0, 0.9); err != nil {
		t.Fatal(err)
	}
	high, _ := m.ObserveIdeal(cfg)
	if high.P95[0] <= low.P95[0] {
		t.Errorf("higher load should raise p95: %v vs %v", high.P95[0], low.P95[0])
	}
	if err := m.SetLoad(2, 0.5); err == nil {
		t.Error("SetLoad on BG job should fail")
	}
	if err := m.SetLoad(9, 0.5); err == nil {
		t.Error("SetLoad on missing job should fail")
	}
	if err := m.SetLoad(0, -1); err == nil {
		t.Error("SetLoad with bad load should fail")
	}
}

func TestQoSViolationDetected(t *testing.T) {
	m := newTestMachine(t, 11)
	if _, err := m.AddLC("memcached", 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBG("canneal"); err != nil {
		t.Fatal(err)
	}
	topo := m.Topology()
	// Starve memcached of everything.
	starved := resource.Extremum(topo, 2, 1)
	obs, err := m.ObserveIdeal(starved)
	if err != nil {
		t.Fatal(err)
	}
	if obs.QoSMet[0] || obs.AllQoSMet {
		t.Error("starved memcached at 90% load should violate QoS")
	}
	// Feed it everything.
	fed := resource.Extremum(topo, 2, 0)
	obs, _ = m.ObserveIdeal(fed)
	if !obs.QoSMet[0] {
		t.Errorf("fully-fed memcached should meet QoS (p95=%v target=%v)", obs.P95[0], m.Jobs()[0].QoS)
	}
}

func TestSetWindow(t *testing.T) {
	m := newTestMachine(t, 1)
	m.SetWindow(1.0)
	if m.Window() != 1.0 {
		t.Error("SetWindow should apply")
	}
	m.SetWindow(-1)
	if m.Window() != 1.0 {
		t.Error("SetWindow should ignore non-positive values")
	}
}

// TestObserveErrorPaths table-drives the observation failure modes a
// controller (or fault injector) must handle. A failed call must not
// spend a window or advance the clock.
func TestObserveErrorPaths(t *testing.T) {
	overAlloc := func(m *Machine) resource.Config {
		cfg := resource.EqualSplit(m.Topology(), 3)
		cfg.Jobs[0][0] = m.Topology()[0].Units + 5 // more cores than exist
		return cfg
	}
	cases := []struct {
		name    string
		place   bool // place the standard 3-job mix first
		observe func(m *Machine) error
		wantSub string
	}{
		{
			name:  "no jobs placed",
			place: false,
			observe: func(m *Machine) error {
				_, err := m.Observe(resource.Config{})
				return err
			},
			wantSub: "no jobs",
		},
		{
			name:  "config job count mismatch",
			place: true,
			observe: func(m *Machine) error {
				_, err := m.Observe(resource.EqualSplit(m.Topology(), 2))
				return err
			},
			wantSub: "config has 2 jobs, machine hosts 3",
		},
		{
			name:  "infeasible allocation",
			place: true,
			observe: func(m *Machine) error {
				_, err := m.Observe(overAlloc(m))
				return err
			},
			wantSub: "",
		},
		{
			name:  "shared mask length mismatch",
			place: true,
			observe: func(m *Machine) error {
				_, err := m.ObserveShared(resource.EqualSplit(m.Topology(), 3), []bool{true})
				return err
			},
			wantSub: "shared mask has 1 entries for 3 jobs",
		},
		{
			name:  "ideal observation rejects mismatch too",
			place: true,
			observe: func(m *Machine) error {
				_, err := m.ObserveIdeal(resource.EqualSplit(m.Topology(), 1))
				return err
			},
			wantSub: "config has 1 jobs, machine hosts 3",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, 50)
			if tc.place {
				placeMix(t, m)
			}
			err := tc.observe(m)
			if err == nil {
				t.Fatal("want error")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q missing %q", err, tc.wantSub)
			}
			if m.Clock() != 0 || m.Observations() != 0 {
				t.Errorf("failed observe must not spend a window: clock=%v obs=%d", m.Clock(), m.Observations())
			}
		})
	}
}

func TestAdvanceClockIdlesSimulatedTime(t *testing.T) {
	m := newTestMachine(t, 51)
	placeMix(t, m)
	if _, err := m.Observe(resource.EqualSplit(m.Topology(), 3)); err != nil {
		t.Fatal(err)
	}
	was := m.Clock()
	m.AdvanceClock(3 * m.Window())
	if m.Clock() != was+3*m.Window() {
		t.Errorf("clock = %v, want %v", m.Clock(), was+3*m.Window())
	}
	m.AdvanceClock(-5)
	m.AdvanceClock(0)
	if m.Clock() != was+3*m.Window() {
		t.Error("non-positive advances must be ignored")
	}
	if m.Observations() != 1 {
		t.Error("idling must not count as observation windows")
	}
}

func TestSharedCalibrationsAcrossMachines(t *testing.T) {
	cals := NewCalibrations()
	m1 := NewShared(resource.Default(), DefaultSpec(), 1, cals)
	if _, err := m1.AddLC("memcached", 0.3); err != nil {
		t.Fatal(err)
	}
	job1 := m1.Jobs()[0]

	// A second machine sharing the cache sees the same calibration.
	m2 := NewShared(resource.Default(), DefaultSpec(), 2, cals)
	if _, err := m2.AddLC("memcached", 0.7); err != nil {
		t.Fatal(err)
	}
	if job2 := m2.Jobs()[0]; job2.MaxQPS != job1.MaxQPS || job2.QoS != job1.QoS {
		t.Errorf("shared calibration diverged: %+v vs %+v", job2, job1)
	}

	// The shared values match what an unshared machine computes.
	m3 := newTestMachine(t, 3)
	if _, err := m3.AddLC("memcached", 0.3); err != nil {
		t.Fatal(err)
	}
	if job3 := m3.Jobs()[0]; job3.MaxQPS != job1.MaxQPS || job3.QoS != job1.QoS {
		t.Errorf("shared and unshared calibrations diverge: %+v vs %+v", job1, job3)
	}

	// nil shared cache is equivalent to New.
	m4 := NewShared(resource.Default(), DefaultSpec(), 4, nil)
	if _, err := m4.AddLC("img-dnn", 0.2); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRangeRejectsNonFinite pins the (0, 1.5] load range at both
// load knobs for values an ordered comparison alone lets through: NaN
// compares false against every bound, so the check must be phrased as
// "inside the range", not "outside one bound".
func TestLoadRangeRejectsNonFinite(t *testing.T) {
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.6} {
		m := newTestMachine(t, 1)
		if _, err := m.AddLC("memcached", load); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("AddLC(load=%v) = %v, want out-of-range error", load, err)
		}
		if len(m.Jobs()) != 0 {
			t.Errorf("AddLC(load=%v) added a job despite the error", load)
		}
		placeMix(t, m)
		if err := m.SetLoad(0, load); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("SetLoad(load=%v) = %v, want out-of-range error", load, err)
		}
		if got := m.Jobs()[0].Load; got != 0.3 {
			t.Errorf("SetLoad(load=%v) changed the load to %v despite the error", load, got)
		}
	}
}

// TestMachineResetMatchesNew pins Reset to New: a machine put through
// arbitrary prior use (jobs, windows, a custom window length, attached
// telemetry) and then reset measures exactly like a freshly built one
// of the same seed, bit for bit.
func TestMachineResetMatchesNew(t *testing.T) {
	topo := resource.Default()
	cals := NewCalibrations()
	lc, bg := workload.LC(), workload.BG()
	rng := stats.NewRNG(17)
	place := func(m *Machine, nLC, nBG int, names []int, loads []float64) {
		t.Helper()
		for i := 0; i < nLC; i++ {
			if _, err := m.AddLC(lc[names[i]].Name, loads[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nBG; i++ {
			if _, err := m.AddBG(bg[names[nLC+i]].Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	mix := func() (nLC, nBG int, names []int, loads []float64) {
		nLC, nBG = 1+rng.Intn(3), rng.Intn(2)
		for i := 0; i < nLC; i++ {
			names = append(names, rng.Intn(len(lc)))
			loads = append(loads, 0.1+0.5*rng.Float64())
		}
		for i := 0; i < nBG; i++ {
			names = append(names, rng.Intn(len(bg)))
		}
		return nLC, nBG, names, loads
	}
	for trial := 0; trial < 8; trial++ {
		seed := int64(rng.Intn(1 << 30))
		m := NewShared(topo, DefaultSpec(), int64(rng.Intn(1<<30)), cals)
		tr := telemetry.NewTracer()
		m.SetTelemetry(tr, telemetry.NewRegistry())
		nLC, nBG, names, loads := mix()
		place(m, nLC, nBG, names, loads)
		for i := rng.Intn(4); i >= 0; i-- {
			if _, err := m.Observe(resource.Random(topo, m.NumJobs(), rng)); err != nil {
				t.Fatal(err)
			}
		}
		m.SetWindow(0.5 + rng.Float64())
		if _, err := m.Observe(resource.Random(topo, m.NumJobs(), rng)); err != nil {
			t.Fatal(err)
		}
		traced := tr.Len()

		m.Reset(seed)
		fresh := NewShared(topo, DefaultSpec(), seed, cals)
		nLC, nBG, names, loads = mix()
		place(m, nLC, nBG, names, loads)
		place(fresh, nLC, nBG, names, loads)
		for w := 0; w < 5; w++ {
			cfg := resource.Random(topo, fresh.NumJobs(), rng)
			got, err := m.Observe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Observe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.P95 {
				if math.Float64bits(got.P95[i]) != math.Float64bits(want.P95[i]) ||
					math.Float64bits(got.Throughput[i]) != math.Float64bits(want.Throughput[i]) ||
					math.Float64bits(got.NormPerf[i]) != math.Float64bits(want.NormPerf[i]) ||
					got.QoSMet[i] != want.QoSMet[i] {
					t.Fatalf("trial %d window %d job %d: reset %+v, new %+v", trial, w, i, got, want)
				}
			}
			if got.At != want.At || got.AllQoSMet != want.AllQoSMet {
				t.Fatalf("trial %d window %d: reset at %v, new at %v", trial, w, got.At, want.At)
			}
		}
		if m.Observations() != fresh.Observations() || m.Clock() != fresh.Clock() ||
			m.ActuationCost() != fresh.ActuationCost() || m.Window() != fresh.Window() {
			t.Fatalf("trial %d: reset (%d windows, clock %v, cost %v, window %v), new (%d, %v, %v, %v)",
				trial, m.Observations(), m.Clock(), m.ActuationCost(), m.Window(),
				fresh.Observations(), fresh.Clock(), fresh.ActuationCost(), fresh.Window())
		}
		if tr.Len() != traced {
			t.Fatalf("trial %d: reset machine still traced (%d events, was %d)", trial, tr.Len(), traced)
		}
	}
}

// TestP95Memo checks the shared analytic-p95 memo against a direct
// P95, bit for bit: on the miss that stores, on the hit that reads, for
// a λ one ulp away, another window, an allocation field one ulp away
// and another workload (each a distinct key), and past the cap, where
// values are still exact but no longer stored. The isolation p95 is
// this memo at the full machine: machines with and without the memo
// must then report the same NormPerf.
func TestP95Memo(t *testing.T) {
	topo := resource.Default()
	full := workload.FullMachine(topo)
	p, err := workload.ByName("memcached")
	if err != nil {
		t.Fatal(err)
	}
	other, err := workload.ByName("img-dnn")
	if err != nil {
		t.Fatal(err)
	}
	cals := NewCalibrations()
	checkAt := func(p *workload.Profile, alloc workload.Alloc, lambda, window float64) {
		t.Helper()
		got, want := cals.P95(p, alloc, lambda, window), p.P95(alloc, lambda, window)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("P95(%s, %+v, λ=%v, window=%v) = %v, direct P95 %v", p.Name, alloc, lambda, window, got, want)
		}
	}
	check := func(lambda, window float64) { t.Helper(); checkAt(p, full, lambda, window) }
	const lambda = 12345.678
	check(lambda, DefaultWindow) // miss
	check(lambda, DefaultWindow) // hit
	check(math.Nextafter(lambda, 0), DefaultWindow)
	check(lambda, 1)
	if n := len(cals.p95); n != 3 {
		t.Fatalf("memo holds %d entries after 3 distinct keys, want 3", n)
	}
	// Each allocation field is part of the key: a neighbour in any one
	// of them is a new entry, then a hit.
	half := full
	half.Cores /= 2
	checkAt(p, half, lambda, DefaultWindow)
	down := func(x *float64) { *x = math.Nextafter(*x, 0) }
	for i, nudge := range []func(a *workload.Alloc){
		func(a *workload.Alloc) { a.Cores-- },
		func(a *workload.Alloc) { down(&a.CacheMB) },
		func(a *workload.Alloc) { down(&a.MemBwGB) },
		func(a *workload.Alloc) { down(&a.MemGB) },
		func(a *workload.Alloc) { down(&a.DiskBw) },
	} {
		alloc := half
		nudge(&alloc)
		checkAt(p, alloc, lambda, DefaultWindow)
		checkAt(p, alloc, lambda, DefaultWindow) // hit
		if n := len(cals.p95); n != 5+i {
			t.Fatalf("memo holds %d entries after %d distinct keys", n, 5+i)
		}
	}
	checkAt(other, full, lambda, DefaultWindow)
	if n := len(cals.p95); n != 10 {
		t.Fatalf("memo holds %d entries after 10 distinct keys, want 10", n)
	}
	for i := len(cals.p95); i < p95MemoCap+10; i++ {
		check(1000+float64(i), DefaultWindow)
	}
	if n := len(cals.p95); n != p95MemoCap {
		t.Fatalf("memo grew to %d entries, cap %d", n, p95MemoCap)
	}
	check(lambda, DefaultWindow) // still a hit
	check(999.5, DefaultWindow)  // past the cap: computed, not stored
	for k := range cals.p95 {
		if k.lambda == math.Float64bits(999.5) {
			t.Error("a value past the cap was stored")
		}
	}

	shared := NewShared(topo, DefaultSpec(), 1, NewCalibrations())
	plain := newTestMachine(t, 1)
	for _, m := range []*Machine{shared, plain} {
		if _, err := m.AddLC("memcached", 0.3); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddLC("img-dnn", 0.2); err != nil {
			t.Fatal(err)
		}
		m.SetWindow(1.5)
		if err := m.SetLoad(0, 0.45); err != nil {
			t.Fatal(err)
		}
	}
	cfg := resource.NewConfig(topo, 2)
	for r := range topo {
		cfg.Jobs[0][r] = topo[r].Units / 2
		cfg.Jobs[1][r] = topo[r].Units - topo[r].Units/2
	}
	a, errA := shared.ObserveIdeal(cfg)
	b, errB := plain.ObserveIdeal(cfg)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a.NormPerf {
		if math.Float64bits(a.NormPerf[i]) != math.Float64bits(b.NormPerf[i]) {
			t.Errorf("job %d NormPerf %v with the memo, %v without", i, a.NormPerf[i], b.NormPerf[i])
		}
	}
}

// TestSharedObserveMatchesUnshared checks the p95 memo end to end: a
// machine that reads analytic p95s from a shared memo measures bit for
// bit like one that computes them, window after window, over random
// mixes, loads and partitions, through Observe and through
// ObserveShared's penalty-scaled allocations. Both machines draw the
// same noise stream, so any extra or missing draw shows up too. The
// memo is reused across trials, so later trials read values earlier
// ones stored.
func TestSharedObserveMatchesUnshared(t *testing.T) {
	topo := resource.Default()
	cals := NewCalibrations()
	lc, bg := workload.LC(), workload.BG()
	rng := stats.NewRNG(29)
	for trial := 0; trial < 40; trial++ {
		seed := int64(rng.Intn(1 << 30))
		shared, plain := NewShared(topo, DefaultSpec(), seed, cals), New(topo, DefaultSpec(), seed)
		nLC, nBG := 1+rng.Intn(3), rng.Intn(3)
		for _, m := range []*Machine{shared, plain} {
			m.SetWindow([]float64{DefaultWindow, 1, 0.5}[trial%3])
		}
		for i := 0; i < nLC; i++ {
			name := lc[rng.Intn(len(lc))].Name
			// Quantized loads make later trials repeat memo keys.
			load := 0.05 * float64(1+rng.Intn(12))
			for _, m := range []*Machine{shared, plain} {
				if _, err := m.AddLC(name, load); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < nBG; i++ {
			name := bg[rng.Intn(len(bg))].Name
			for _, m := range []*Machine{shared, plain} {
				if _, err := m.AddBG(name); err != nil {
					t.Fatal(err)
				}
			}
		}
		n := nLC + nBG
		mask := make([]bool, n)
		for w := 0; w < 6; w++ {
			cfg := resource.Random(topo, n, rng)
			if w%3 == 2 {
				// An equal split repeats across trials, so windows read
				// tuples that earlier windows stored.
				cfg = resource.EqualSplit(topo, n)
			}
			var a, b Observation
			var errA, errB error
			if w%2 == 0 {
				a, errA = shared.Observe(cfg)
				b, errB = plain.Observe(cfg)
			} else {
				for i := range mask {
					mask[i] = rng.Float64() < 0.6
				}
				a, errA = shared.ObserveShared(cfg, mask)
				b, errB = plain.ObserveShared(cfg, mask)
			}
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(a.P95[i]) != math.Float64bits(b.P95[i]) ||
					math.Float64bits(a.Throughput[i]) != math.Float64bits(b.Throughput[i]) ||
					math.Float64bits(a.NormPerf[i]) != math.Float64bits(b.NormPerf[i]) ||
					a.QoSMet[i] != b.QoSMet[i] {
					t.Fatalf("trial %d window %d job %d: shared p95 %v thr %v norm %v, unshared p95 %v thr %v norm %v",
						trial, w, i, a.P95[i], a.Throughput[i], a.NormPerf[i], b.P95[i], b.Throughput[i], b.NormPerf[i])
				}
			}
			if a.AllQoSMet != b.AllQoSMet || a.At != b.At {
				t.Fatalf("trial %d window %d: shared (%t, %v), unshared (%t, %v)", trial, w, a.AllQoSMet, a.At, b.AllQoSMet, b.At)
			}
		}
	}
	if len(cals.p95) == 0 {
		t.Fatal("the shared machines never used the memo")
	}
}
