package profile

import (
	"reflect"
	"sync"
	"testing"

	"clite/internal/qos"
	"clite/internal/resource"
	"clite/internal/workload"
)

// coldTopology returns a topology no other test of the package uses,
// so the process memo has no table for it yet.
func coldTopology(cores int) resource.Topology {
	topo := resource.Default()
	topo[0].Units = cores
	return topo
}

// TestSoloMemoMatchesDirect checks the process memo against a direct
// computation from a fresh qos.Calibrate sweep: every LC workload at
// every solo bucket of a load in (0, 1.5], and every BG workload, on
// the default topology and a non-default one. Two caches over one
// topology share each profile, and loads inside a bucket reach the
// bucket's profile.
func TestSoloMemoMatchesDirect(t *testing.T) {
	for _, topo := range []resource.Topology{resource.Default(), resource.Small()} {
		c, other := NewCache(topo), NewCache(topo)
		for _, p := range workload.BG() {
			got, err := c.Solo(p.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := computeSolo(topo, p, qos.Calibration{}, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: memo %+v, direct %+v", p.Name, got, want)
			}
		}
		for _, p := range workload.LC() {
			cal, err := qos.Calibrate(p, topo)
			if err != nil {
				t.Fatal(err)
			}
			for q := 1; q <= 30; q++ {
				load := float64(q) * LoadQuantum
				got, err := c.Solo(p.Name, load)
				if err != nil {
					t.Fatal(err)
				}
				if want := computeSolo(topo, p, cal, load); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s@%.2f over %d resources: memo %+v, direct %+v", p.Name, load, len(topo), got, want)
				}
				inside, err := other.Solo(p.Name, load+0.6*LoadQuantum)
				if err != nil {
					t.Fatal(err)
				}
				if inside != got {
					t.Fatalf("%s@%.2f: a second cache got another profile for the bucket", p.Name, load)
				}
			}
		}
	}
}

// TestSoloMemoConcurrentFirstUse races first use of a cold topology's
// memo: every goroutine gets the one table and, per key, the one
// stored profile and calibration. make race runs it under -race.
func TestSoloMemoConcurrentFirstUse(t *testing.T) {
	topo := coldTopology(17)
	const goroutines = 16
	tables := make([]*soloTable, goroutines)
	solos := make([][2]*Solo, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewCache(topo)
			tables[g] = c.solos
			for i, j := range []Job{{"memcached", 0.3}, {"img-dnn", 0.2}} {
				s, err := c.Solo(j.Workload, j.Load)
				if err != nil {
					t.Error(err)
					return
				}
				solos[g][i] = s
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if tables[g] != tables[0] || solos[g] != solos[0] {
			t.Fatalf("goroutine %d: table %p profiles %p, goroutine 0: %p %p", g, tables[g], solos[g], tables[0], solos[0])
		}
	}
}

// TestSoloMemoBounded pins both bounds on fresh memos: tables for at
// most memoTopologies topologies, and at most soloMemoCap profiles per
// table. Past either bound the answer is still computed, and correct.
func TestSoloMemoBounded(t *testing.T) {
	tabs := soloTables{byTopo: make(map[string]*soloTable)}
	for i := 0; i < memoTopologies+3; i++ {
		topo := coldTopology(21 + i)
		first := tabs.table(topo)
		kept := tabs.table(topo) == first
		if want := i < memoTopologies; kept != want {
			t.Fatalf("topology %d: table kept %t, want %t", i, kept, want)
		}
	}
	if len(tabs.byTopo) != memoTopologies {
		t.Fatalf("memo keeps %d topologies, cap %d", len(tabs.byTopo), memoTopologies)
	}

	topo := resource.Default()
	tab := &soloTable{topo: topo, m: make(map[soloKey]*Solo)}
	p, err := workload.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < soloMemoCap+10; q++ {
		load := float64(q) * LoadQuantum
		s, err := tab.solo(p.Name, load)
		if err != nil {
			t.Fatal(err)
		}
		if want := computeSolo(topo, p, qos.Calibration{}, load); !reflect.DeepEqual(s, want) {
			t.Fatalf("bucket %d: %+v, direct %+v", q, s, want)
		}
	}
	if len(tab.m) != soloMemoCap {
		t.Fatalf("table holds %d profiles, cap %d", len(tab.m), soloMemoCap)
	}
}
