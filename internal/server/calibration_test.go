package server

import (
	"reflect"
	"sync"
	"testing"

	"clite/internal/qos"
	"clite/internal/resource"
	"clite/internal/workload"
)

// TestCalibrationMemoMatchesDirect checks every LC workload's
// calibration, through Calibrate and through the jobs of an unshared
// machine, against a direct qos.Calibrate sweep, on the default
// topology and on one with fewer cores, whose calibrations differ.
func TestCalibrationMemoMatchesDirect(t *testing.T) {
	fewerCores := resource.Default()
	fewerCores[0].Units = 12
	for _, topo := range []resource.Topology{resource.Default(), fewerCores} {
		for _, p := range workload.LC() {
			want, err := qos.Calibrate(p, topo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Calibrate(p, topo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %d cores: memo %+v, direct %+v", p.Name, topo[0].Units, got, want)
			}
			m := New(topo, DefaultSpec(), 1)
			i, err := m.AddLC(p.Name, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if j := m.Jobs()[i]; j.MaxQPS != want.MaxQPS || j.QoS != want.QoSTarget {
				t.Errorf("%s over %d cores: machine job %+v, direct %+v", p.Name, topo[0].Units, j, want)
			}
		}
	}
}

// TestSharedCalibrationsAcrossTopologies shares one Calibrations value
// between machines over different topologies: each machine's jobs
// carry the calibration of its own topology, whichever machine asked
// first.
func TestSharedCalibrationsAcrossTopologies(t *testing.T) {
	cals := NewCalibrations()
	for seed, topo := range []resource.Topology{resource.Default(), resource.Small(), resource.Default()} {
		m := NewShared(topo, DefaultSpec(), int64(seed), cals)
		for _, p := range workload.LC() {
			want, err := qos.Calibrate(p, topo)
			if err != nil {
				t.Fatal(err)
			}
			i, err := m.AddLC(p.Name, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if j := m.Jobs()[i]; j.MaxQPS != want.MaxQPS || j.QoS != want.QoSTarget {
				t.Errorf("machine %d, %s: MaxQPS %v QoS %v, direct over its topology %v and %v",
					seed, p.Name, j.MaxQPS, j.QoS, want.MaxQPS, want.QoSTarget)
			}
		}
	}
}

// TestCalibrationMemoConcurrentFirstUse races first use of a pair no
// other test sweeps: every goroutine gets the one stored calibration
// (its curve is one array). make race runs it under -race.
func TestCalibrationMemoConcurrentFirstUse(t *testing.T) {
	topo := resource.Default()
	topo[0].Units = 17
	p, err := workload.ByName("memcached")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	curves := make([]*qos.Point, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cal, err := Calibrate(p, topo)
			if err != nil {
				t.Error(err)
				return
			}
			curves[g] = &cal.Curve[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if curves[g] != curves[0] {
			t.Fatalf("goroutine %d got another calibration than goroutine 0", g)
		}
	}
}

// TestCalibrationMemoBounded fills a fresh memo past calMemoCap: it
// stores exactly the cap, and a pair past it is still swept correctly.
func TestCalibrationMemoBounded(t *testing.T) {
	memo := newCalMemo()
	p, err := workload.ByName("memcached")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calMemoCap+5; i++ {
		topo := resource.Default()
		topo[0].Units = 20 + i
		cal, err := memo.calibrate(p, topo, topo.Key())
		if err != nil {
			t.Fatal(err)
		}
		if i >= calMemoCap {
			if want, _ := qos.Calibrate(p, topo); !reflect.DeepEqual(cal, want) {
				t.Fatalf("pair %d past the cap: %+v, direct %+v", i, cal, want)
			}
		}
	}
	if len(memo.m) != calMemoCap {
		t.Fatalf("memo holds %d calibrations, cap %d", len(memo.m), calMemoCap)
	}
}
