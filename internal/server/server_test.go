package server

import (
	"math"
	"strings"
	"testing"

	"clite/internal/resource"
	"clite/internal/stats"
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
	if _, ok := m.Calibration("memcached"); !ok {
		t.Error("calibration should be cached")
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
	if cals.Len() != 1 {
		t.Fatalf("shared cache has %d entries, want 1", cals.Len())
	}
	cal1, _ := m1.Calibration("memcached")

	// A second machine sharing the cache sees the same calibration and
	// adds nothing new.
	m2 := NewShared(resource.Default(), DefaultSpec(), 2, cals)
	if _, err := m2.AddLC("memcached", 0.7); err != nil {
		t.Fatal(err)
	}
	cal2, ok := m2.Calibration("memcached")
	if !ok || cal2.MaxQPS != cal1.MaxQPS || cal2.QoSTarget != cal1.QoSTarget {
		t.Errorf("shared calibration diverged: %+v vs %+v", cal2, cal1)
	}
	if cals.Len() != 1 {
		t.Errorf("shared cache grew to %d entries on reuse", cals.Len())
	}

	// The shared values match what an unshared machine computes.
	m3 := newTestMachine(t, 3)
	if _, err := m3.AddLC("memcached", 0.3); err != nil {
		t.Fatal(err)
	}
	cal3, _ := m3.Calibration("memcached")
	if cal3.MaxQPS != cal1.MaxQPS || cal3.QoSTarget != cal1.QoSTarget {
		t.Errorf("shared and unshared calibrations diverge: %+v vs %+v", cal1, cal3)
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
