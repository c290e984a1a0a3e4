package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"clite/internal/faults"
)

func TestRequestClassification(t *testing.T) {
	if !(Request{Workload: "memcached", Load: 0.2}).IsLC() {
		t.Error("loaded request should be LC")
	}
	if (Request{Workload: "canneal"}).IsLC() {
		t.Error("zero-load request should be BG")
	}
}

func TestPlaceSpreadsAcrossNodes(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 1})
	var nodes []int
	for i := 0; i < 3; i++ {
		p, err := s.Place(Request{Workload: "memcached", Load: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, p.Node)
	}
	// Least-loaded placement must use all three nodes before doubling
	// up anywhere.
	seen := map[int]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("node %d reused before the cluster filled: %v", n, nodes)
		}
		seen[n] = true
	}
	if s.Jobs() != 3 {
		t.Errorf("Jobs() = %d, want 3", s.Jobs())
	}
}

func TestPlaceValidation(t *testing.T) {
	s := New(Options{Nodes: 1, Seed: 2})
	if _, err := s.Place(Request{Workload: "memcached", Load: -1}); err == nil {
		t.Error("negative load should be rejected")
	}
	if _, err := s.Place(Request{Workload: "not-a-workload", Load: 0.2}); err == nil {
		t.Error("unknown workload should be rejected")
	}
}

// TestPlaceRejectsOutOfRangeLoads pins Place's [0, 1.5] load check
// for values an ordered comparison alone lets through: a NaN load must
// be refused up front as out of range, not run the whole pipeline and
// come back ErrUnplaceable.
func TestPlaceRejectsOutOfRangeLoads(t *testing.T) {
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.6} {
		s := New(Options{Nodes: 1, Seed: 2})
		_, err := s.Place(Request{Workload: "memcached", Load: load})
		if err == nil || errors.Is(err, ErrUnplaceable) || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Place(load=%v) = %v, want out-of-range error", load, err)
		}
		if st := s.Stats(); st.Placements != 0 || st.Rejections != 0 || st.Screens != 0 {
			t.Errorf("Place(load=%v) reached the pipeline: %+v", load, st)
		}
	}
}

func TestPlaceRejectsHopelessJob(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 3})
	// 140% of the knee cannot meet QoS anywhere, even alone.
	_, err := s.Place(Request{Workload: "memcached", Load: 1.4})
	if !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("expected ErrUnplaceable, got %v", err)
	}
	if s.Jobs() != 0 {
		t.Error("rejected job must not occupy a node")
	}
}

func TestPlaceBGJobsAlwaysAdmissible(t *testing.T) {
	s := New(Options{Nodes: 1, Seed: 4})
	for _, bg := range []string{"swaptions", "canneal"} {
		if _, err := s.Place(Request{Workload: bg}); err != nil {
			t.Fatalf("BG job %s should place: %v", bg, err)
		}
	}
	snap := s.Snapshot()
	if len(snap[0].Jobs) != 2 {
		t.Fatalf("snapshot jobs = %v", snap[0].Jobs)
	}
}

func TestClusterPacksUntilSaturation(t *testing.T) {
	// One node, repeated heavy LC jobs: the first placements succeed,
	// then the scheduler starts rejecting — the admission behaviour a
	// warehouse scheduler builds on.
	s := New(Options{Nodes: 1, Seed: 5, ScreenIterations: 16})
	accepted := 0
	for i := 0; i < 4; i++ {
		_, err := s.Place(Request{Workload: "memcached", Load: 0.45})
		if err == nil {
			accepted++
			continue
		}
		if !errors.Is(err, ErrUnplaceable) {
			t.Fatal(err)
		}
		break
	}
	if accepted == 0 {
		t.Error("a 45% memcached should fit on an empty node")
	}
	if accepted >= 4 {
		t.Error("four 45% memcacheds cannot share one node; admission control failed")
	}
}

func TestFailNodeReschedulesAcrossSurvivors(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 11, ScreenIterations: 16})
	var first Placement
	for i := 0; i < 3; i++ {
		p, err := s.Place(Request{Workload: "img-dnn", Load: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p
		}
	}
	outcomes, err := s.FailNode(first.Node)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1 {
		t.Fatalf("drained %d jobs, want 1: %+v", len(outcomes), outcomes)
	}
	o := outcomes[0]
	if o.Err != nil {
		t.Fatalf("light LC job must rehome onto a survivor: %v", o.Err)
	}
	if o.From != first.Node || o.Node == first.Node || o.Node < 0 {
		t.Errorf("outcome %+v: must move off the failed node", o)
	}
	if s.Jobs() != 3 {
		t.Errorf("Jobs() = %d after reschedule, want 3", s.Jobs())
	}
	for _, info := range s.Snapshot() {
		if info.ID == first.Node {
			if !info.Failed || len(info.Jobs) != 0 {
				t.Errorf("failed node snapshot %+v: want Failed and empty", info)
			}
		} else if info.Failed {
			t.Errorf("survivor %d marked failed", info.ID)
		}
	}
	// The failed node takes no further placements.
	p, err := s.Place(Request{Workload: "swaptions"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Node == first.Node {
		t.Error("Place landed a job on a failed node")
	}
}

func TestFailNodeValidation(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 12})
	if _, err := s.FailNode(7); err == nil {
		t.Error("unknown node id must be rejected")
	}
	if _, err := s.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailNode(0); err == nil {
		t.Error("double failure must be rejected")
	}
}

func TestAllNodesFailedIsUnplaceable(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 13})
	for id := 0; id < 2; id++ {
		if _, err := s.FailNode(id); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Place(Request{Workload: "swaptions"})
	if !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("a fully failed cluster must reject everything, got %v", err)
	}
}

func TestRescheduleReportsUnplaceableJobs(t *testing.T) {
	// Two nodes, each saturated with a heavy LC job; when one node
	// dies its job cannot squeeze next to the other heavy job, and the
	// outcome must say so without erroring the whole reschedule.
	s := New(Options{Nodes: 2, Seed: 14, ScreenIterations: 16})
	for i := 0; i < 2; i++ {
		if _, err := s.Place(Request{Workload: "memcached", Load: 0.6}); err != nil {
			t.Fatal(err)
		}
	}
	outcomes, err := s.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1 {
		t.Fatalf("outcomes = %+v", outcomes)
	}
	if !errors.Is(outcomes[0].Err, ErrUnplaceable) {
		t.Errorf("outcome error = %v, want ErrUnplaceable", outcomes[0].Err)
	}
	if outcomes[0].Node != -1 {
		t.Errorf("unplaceable outcome must carry Node -1: %+v", outcomes[0])
	}
	if s.Jobs() != 1 {
		t.Errorf("Jobs() = %d, want 1 (the survivor keeps its own job)", s.Jobs())
	}
}

// clusterState flattens placements for comparison: per-node job labels
// plus failure flags.
func clusterState(s *Scheduler) string {
	out := ""
	for _, n := range s.Snapshot() {
		out += fmt.Sprintf("%d failed=%v %v\n", n.ID, n.Failed, n.Jobs)
	}
	return out
}

func TestRescheduleIsDeterministic(t *testing.T) {
	// Same seed ⇒ same placements, same reschedule outcomes, same final
	// map — even though rehoming screens the survivors concurrently.
	// This test is the race-detector workout for that fan-out.
	run := func() (string, string) {
		s := New(Options{Nodes: 3, Seed: 15, ScreenIterations: 12})
		reqs := []Request{
			{Workload: "img-dnn", Load: 0.2},
			{Workload: "memcached", Load: 0.2},
			{Workload: "swaptions"},
			{Workload: "xapian", Load: 0.2},
		}
		for _, r := range reqs {
			if _, err := s.Place(r); err != nil {
				t.Fatal(err)
			}
		}
		outcomes, err := s.FailNode(0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", outcomes), clusterState(s)
	}
	o1, s1 := run()
	o2, s2 := run()
	if o1 != o2 {
		t.Errorf("reschedule outcomes diverge:\n%s\nvs\n%s", o1, o2)
	}
	if s1 != s2 {
		t.Errorf("final placement map diverges:\n%s\nvs\n%s", s1, s2)
	}
}

func TestScreeningUnderFaultsStillAdmits(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 16, ScreenIterations: 16, Faults: faults.Plan{
		Seed: 99, Transient: 0.10, Outlier: 0.10,
	}})
	p, err := s.Place(Request{Workload: "img-dnn", Load: 0.2})
	if err != nil {
		t.Fatalf("a light LC job must still screen through a 10%%/10%% fault mix: %v", err)
	}
	if !p.Result.QoSMeetable {
		t.Error("admitted placement should carry a QoS-meeting screening result")
	}
}

func TestSnapshotReportsState(t *testing.T) {
	s := New(Options{Nodes: 2, Seed: 6})
	if _, err := s.Place(Request{Workload: "img-dnn", Load: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(Request{Workload: "streamcluster"}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d nodes", len(snap))
	}
	labeled := 0
	for _, n := range snap {
		labeled += len(n.Jobs)
		for _, j := range n.Jobs {
			if j == "img-dnn@20%" || j == "streamcluster" {
				continue
			}
			t.Errorf("unexpected job label %q", j)
		}
	}
	if labeled != 2 {
		t.Errorf("snapshot lists %d jobs, want 2", labeled)
	}
}

// exhaustionScenario builds the survivor-exhaustion fixture: two nodes
// each saturated with two 45% memcacheds, then node 0 dies. The
// survivor has no headroom left, so the reschedule finds a home for
// nothing — the exhaustion path the warehouse layer must survive.
func exhaustionScenario(t *testing.T, workers int) (*Scheduler, []Outcome, Stats) {
	t.Helper()
	s := New(Options{Nodes: 2, Seed: 21, ScreenIterations: 16, ScreenWorkers: workers})
	for i := 0; i < 4; i++ {
		if _, err := s.Place(Request{Workload: "memcached", Load: 0.45}); err != nil {
			t.Fatalf("fixture: placement %d failed: %v (two 45%% memcacheds must fit per node)", i, err)
		}
	}
	for _, info := range s.Snapshot() {
		if len(info.Jobs) != 2 {
			t.Fatalf("fixture: node %d hosts %v; want both nodes saturated before the failure", info.ID, info.Jobs)
		}
	}
	outcomes, err := s.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	return s, outcomes, s.Stats()
}

func TestFailNodeSurvivorExhaustion(t *testing.T) {
	s, outcomes, st := exhaustionScenario(t, 1)

	// Every drained job must surface in the outcome stream — none
	// silently dropped — each reported unrehomed with ErrUnplaceable,
	// not aborting the reschedule.
	if len(outcomes) != 2 {
		t.Fatalf("drained 2 jobs but got %d outcomes: %+v", len(outcomes), outcomes)
	}
	for i, o := range outcomes {
		if o.From != 0 {
			t.Errorf("outcome %d drained from node %d, want 0", i, o.From)
		}
		if !errors.Is(o.Err, ErrUnplaceable) {
			t.Errorf("outcome %d: err = %v, want ErrUnplaceable (survivor is full)", i, o.Err)
		}
		if o.Node != -1 {
			t.Errorf("unrehomed outcome %d must carry Node -1, got %d", i, o.Node)
		}
	}

	// Ledger consistency: the failed node is empty, the job count
	// matches what the survivor hosts, the Place-call partition is
	// untouched by the reschedule, and the reschedule's screening work
	// is on the books.
	snap := s.Snapshot()
	if !snap[0].Failed || len(snap[0].Jobs) != 0 {
		t.Errorf("failed node snapshot %+v: want Failed and empty", snap[0])
	}
	if s.Jobs() != 2 || len(snap[1].Jobs) != 2 {
		t.Errorf("Jobs() = %d, survivor hosts %d; want 2 and 2", s.Jobs(), len(snap[1].Jobs))
	}
	if st.Placements != 4 || st.Rejections != 0 {
		t.Errorf("Place ledger = %d placements / %d rejections; FailNode must not touch it", st.Placements, st.Rejections)
	}
	if st.Screens == 0 || st.BOIterations == 0 {
		t.Errorf("stats = %+v: the reschedule's screening work is missing from the ledger", st)
	}

	// The cluster stays coherent after exhaustion: another heavy LC job
	// is cleanly rejected and lands in the Rejections column.
	if _, err := s.Place(Request{Workload: "memcached", Load: 0.45}); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("post-exhaustion placement: err = %v, want ErrUnplaceable", err)
	}
	if after := s.Stats(); after.Placements != 4 || after.Rejections != 1 {
		t.Errorf("post-rejection ledger = %d/%d, want 4 placements / 1 rejection", after.Placements, after.Rejections)
	}
}

func TestFailNodeSurvivorExhaustionDeterministicAcrossWorkers(t *testing.T) {
	// The exhaustion reschedule screens survivors concurrently; the
	// outcome stream, final map, and ledger must be byte-identical for
	// 1 worker vs many.
	s1, o1, st1 := exhaustionScenario(t, 1)
	s4, o4, st4 := exhaustionScenario(t, 4)
	if fmt.Sprintf("%+v", o1) != fmt.Sprintf("%+v", o4) {
		t.Errorf("outcomes diverge across worker counts:\n%+v\nvs\n%+v", o1, o4)
	}
	if clusterState(s1) != clusterState(s4) {
		t.Errorf("final placement map diverges:\n%s\nvs\n%s", clusterState(s1), clusterState(s4))
	}
	if st1 != st4 {
		t.Errorf("stats ledgers diverge:\n%+v\nvs\n%+v", st1, st4)
	}
}
