package qos

import (
	"testing"

	"clite/internal/resource"
	"clite/internal/workload"
)

func TestCalibrateRejectsBGJobs(t *testing.T) {
	if _, err := Calibrate(workload.MustByName("canneal"), resource.Default()); err == nil {
		t.Error("expected error calibrating a background job")
	}
}

func TestCalibrateProducesSaneKnees(t *testing.T) {
	topo := resource.Default()
	for _, p := range workload.LC() {
		cal, err := Calibrate(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		if cal.MaxQPS <= 0 || cal.QoSTarget <= 0 {
			t.Fatalf("%s: degenerate calibration %+v", p.Name, cal)
		}
		if len(cal.Curve) != sweepPoints {
			t.Fatalf("%s: curve has %d points", p.Name, len(cal.Curve))
		}
		// Knee must sit in the interior of the sweep: past half
		// saturation but before the final explosion.
		saturation := cal.Curve[len(cal.Curve)-1].QPS
		frac := cal.MaxQPS / saturation
		if frac < 0.5 || frac > 0.97 {
			t.Errorf("%s: knee at %.0f%% of saturation, want interior", p.Name, frac*100)
		}
		// The QoS target must leave meaningful headroom over idle
		// latency (the paper's knee targets are several × idle).
		idle := cal.Curve[0].P95
		if cal.QoSTarget < 2*idle {
			t.Errorf("%s: QoS target %v too close to idle %v", p.Name, cal.QoSTarget, idle)
		}
	}
}

func TestCurvesAreMonotone(t *testing.T) {
	topo := resource.Default()
	for _, p := range workload.LC() {
		cal, err := Calibrate(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for i, pt := range cal.Curve {
			if pt.P95 < prev-1e-9 {
				t.Fatalf("%s: curve not monotone at point %d", p.Name, i)
			}
			prev = pt.P95
		}
	}
}

func TestCalibrationIsDeterministic(t *testing.T) {
	topo := resource.Default()
	p := workload.MustByName("memcached")
	a, _ := Calibrate(p, topo)
	b, _ := Calibrate(p, topo)
	if a.MaxQPS != b.MaxQPS || a.QoSTarget != b.QoSTarget {
		t.Error("calibration must be deterministic")
	}
}

func TestQoSMetAtModerateLoadViolatedAtOverload(t *testing.T) {
	topo := resource.Default()
	full := workload.FullMachine(topo)
	for _, p := range workload.LC() {
		cal, err := Calibrate(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.P95(full, 0.5*cal.MaxQPS, 2.0); got > cal.QoSTarget {
			t.Errorf("%s: p95 %v at 50%% load should meet target %v", p.Name, got, cal.QoSTarget)
		}
		if got := p.P95(full, 1.3*cal.MaxQPS, 2.0); got <= cal.QoSTarget {
			t.Errorf("%s: p95 %v at 130%% load should violate target %v", p.Name, got, cal.QoSTarget)
		}
	}
}

func TestCalibrateCoversEveryLCWorkload(t *testing.T) {
	for _, p := range workload.LC() {
		cal, err := Calibrate(p, resource.Default())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if cal.Workload != p.Name || cal.MaxQPS <= 0 || cal.QoSTarget <= 0 {
			t.Errorf("%s: calibration %+v", p.Name, cal)
		}
	}
}

func TestKneeIndexEdgeCases(t *testing.T) {
	if got := kneeIndex([]Point{{1, 1}, {2, 2}}); got != 1 {
		t.Errorf("short curve knee = %d, want last index", got)
	}
	flat := []Point{{1, 1}, {2, 1}, {3, 1}, {4, 1}}
	if got := kneeIndex(flat); got != 3 {
		t.Errorf("flat curve knee = %d, want last index", got)
	}
	// A curve that is steep from the start exercises the chord fallback.
	steep := []Point{{1, 1}, {2, 8}, {3, 64}, {4, 512}}
	got := kneeIndex(steep)
	if got < 0 || got >= len(steep) {
		t.Errorf("chord fallback returned %d", got)
	}
}

func TestMemcachedOutpacesImgDNN(t *testing.T) {
	// Sanity anchor from Fig. 6: memcached's max load is an order of
	// magnitude above img-dnn's, and its QoS target far tighter.
	topo := resource.Default()
	mc, _ := Calibrate(workload.MustByName("memcached"), topo)
	id, _ := Calibrate(workload.MustByName("img-dnn"), topo)
	if mc.MaxQPS < 5*id.MaxQPS {
		t.Errorf("memcached maxQPS %v should dwarf img-dnn's %v", mc.MaxQPS, id.MaxQPS)
	}
	if mc.QoSTarget > id.QoSTarget {
		t.Errorf("memcached target %v should be tighter than img-dnn's %v", mc.QoSTarget, id.QoSTarget)
	}
}
