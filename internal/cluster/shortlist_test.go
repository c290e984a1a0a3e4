package cluster

import (
	"testing"

	"clite/internal/core"
	"clite/internal/profile"
	"clite/internal/resource"
)

// TestPlaceScreensPastInfeasibleRep puts two distinct mixes before any
// cutoff: the least-loaded node's mix screens infeasible, so Place must
// go on to screen the second representative and admit there.
func TestPlaceScreensPastInfeasibleRep(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 5, ScreenIterations: 8, ScreenWorkers: 1})
	s.join(s.nodes[0], s.resolve(Request{Workload: "memcached", Load: 0.5}))
	s.join(s.nodes[1], s.resolve(Request{Workload: "swaptions"}))
	s.join(s.nodes[1], s.resolve(Request{Workload: "streamcluster"}))
	p, err := s.Place(Request{Workload: "img-dnn", Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); p.Node != 1 || st.Screens != 2 {
		t.Fatalf("placed on node %d after %d screens, want node 1 after 2", p.Node, st.Screens)
	}
	mustAudit(t, s)
}

// TestFailedVerifyDemotesToWarmScreen caches a feasible entry whose
// partition starves the arrival: its verify window fails, and the
// candidate must stay in the race as a screen warm-started from the
// entry's seeds, which finds a partition that holds.
func TestFailedVerifyDemotesToWarmScreen(t *testing.T) {
	topo := resource.Default()
	s := New(Options{Nodes: 1, Seed: 5, ScreenIterations: 12, ScreenWorkers: 1})
	s.join(s.nodes[0], s.resolve(Request{Workload: "swaptions"}))
	req := Request{Workload: "memcached", Load: 0.2}
	starved := resource.Extremum(topo, 2, 0) // the arrival is job 1: one unit of each resource
	s.profiles.Store(&profile.Entry{
		Key:      string(profile.AppendInsert(nil, s.nodes[0].mix, profile.Pack(req.Workload, req.Load))),
		Feasible: true,
		Result:   core.Result{Best: starved},
		Seeds:    []resource.Config{starved},
	})
	p, err := s.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if p.Node != 0 || st.VerifyWindows != 1 || st.Screens != 1 || st.WarmScreens != 1 {
		t.Fatalf("node %d, %+v; want node 0 after one failed verify window and one warm screen", p.Node, st)
	}
	mustAudit(t, s)
}
