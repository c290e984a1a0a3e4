package isolation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"clite/internal/resource"
	"clite/internal/stats"
)

func TestApplyRendersAllTools(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	cfg := resource.EqualSplit(topo, 2)
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	actions := m.Applied()
	// 5 resources × 2 jobs.
	if len(actions) != 10 {
		t.Fatalf("got %d actions, want 10: %v", len(actions), actions)
	}
	tools := map[string]bool{}
	for _, a := range actions {
		tools[a.Tool] = true
	}
	for _, want := range []string{"taskset", "Intel CAT", "Intel MBA", "memory cgroups", "blkio cgroups"} {
		if !tools[want] {
			t.Errorf("missing tool %q in %v", want, actions)
		}
	}
	if got := m.Applied(); len(got) != 10 {
		t.Error("Applied should return the last action set")
	}
}

func TestApplyRejectsInfeasibleConfig(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	bad := resource.EqualSplit(topo, 2)
	bad.Jobs[0][0] = 0
	if err := m.Apply(bad); err == nil {
		t.Error("expected validation error")
	}
}

func TestTasksetRendersDisjointContiguousRanges(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	cfg := resource.Extremum(topo, 3, 0)
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	actions := m.Applied()
	var sets []string
	for _, a := range actions {
		if a.Tool == "taskset" {
			sets = append(sets, a.Setting)
		}
	}
	// Job 0 gets 18 cores (0-17), jobs 1 and 2 one core each.
	want := []string{"-c 0-17", "-c 18", "-c 19"}
	for i, w := range want {
		if sets[i] != w {
			t.Errorf("taskset[%d] = %q, want %q", i, sets[i], w)
		}
	}
}

func TestCATMasksAreContiguousAndExhaustive(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	cfg := resource.EqualSplit(topo, 4)
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	actions := m.Applied()
	union := 0
	for _, a := range actions {
		if a.Tool != "Intel CAT" {
			continue
		}
		var mask int
		if _, err := parseMask(a.Setting, &mask); err != nil {
			t.Fatal(err)
		}
		if mask == 0 {
			t.Error("empty CAT mask")
		}
		// Contiguity: mask/lowest-set-bit must be all-ones.
		norm := mask / (mask & -mask)
		if norm&(norm+1) != 0 {
			t.Errorf("non-contiguous mask 0x%x", mask)
		}
		union |= mask
	}
	if union != (1<<11)-1 {
		t.Errorf("masks don't cover all 11 ways: 0x%x", union)
	}
}

func parseMask(setting string, mask *int) (int, error) {
	var n int
	n, err := sscanfMask(setting, mask)
	return n, err
}

func sscanfMask(setting string, mask *int) (int, error) {
	s := strings.TrimPrefix(setting, "mask 0x")
	var v int
	for _, c := range s {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= int(c - '0')
		case c >= 'a' && c <= 'f':
			v |= int(c-'a') + 10
		}
	}
	*mask = v
	return 1, nil
}

func TestVerifyDisjointAcceptsValidAndRejectsOverlap(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	cfg := resource.EqualSplit(topo, 3)
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	actions := m.Applied()
	if err := VerifyDisjoint(actions); err != nil {
		t.Fatalf("valid actions rejected: %v", err)
	}
	overlap := []Action{
		{Tool: "taskset", Job: 0, Setting: "-c 0-3"},
		{Tool: "taskset", Job: 1, Setting: "-c 3-5"},
	}
	if err := VerifyDisjoint(overlap); err == nil {
		t.Error("expected overlap rejection for cores")
	}
	catOverlap := []Action{
		{Tool: "Intel CAT", Job: 0, Setting: "mask 0x3"},
		{Tool: "Intel CAT", Job: 1, Setting: "mask 0x6"},
	}
	if err := VerifyDisjoint(catOverlap); err == nil {
		t.Error("expected overlap rejection for CAT masks")
	}
}

func TestDisjointnessPropertyOnRandomConfigs(t *testing.T) {
	topo := resource.Default()
	rng := stats.NewRNG(5)
	f := func(seed int64, jobsByte uint8) bool {
		nJobs := 2 + int(jobsByte%4)
		cfg := resource.Random(topo, nJobs, rng.Split(seed))
		m := NewManager(topo)
		if err := m.Apply(cfg); err != nil {
			return false
		}
		return VerifyDisjoint(m.Applied()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestActuationCostAccumulates(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	cfg := resource.EqualSplit(topo, 2)
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	first := m.ActuationCost()
	if first <= 0 {
		t.Fatal("expected positive actuation cost")
	}
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	if m.ActuationCost() != 2*first {
		t.Errorf("cost should accumulate: %v then %v", first, m.ActuationCost())
	}
	// Paper: full reconfiguration below 100ms.
	if first > 100*1e6 {
		t.Errorf("one reconfiguration simulated at %v, paper says <100ms", first)
	}
}

func TestMBAPercentGranularity(t *testing.T) {
	topo := resource.Default()
	m := NewManager(topo)
	cfg := resource.EqualSplit(topo, 2)
	if err := m.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	actions := m.Applied()
	for _, a := range actions {
		if a.Tool == "Intel MBA" && a.Setting != "mba 50%" {
			t.Errorf("MBA setting = %q, want 50%% for an equal split", a.Setting)
		}
	}
}

func TestTable1ListsEveryResource(t *testing.T) {
	out := Table1(resource.Default())
	for _, want := range []string{"taskset", "Intel CAT", "Intel MBA", "memory cgroups", "blkio cgroups"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestActionString(t *testing.T) {
	a := Action{Tool: "taskset", Job: 2, Setting: "-c 0-3"}
	if got := a.String(); got != "taskset[job2]: -c 0-3" {
		t.Errorf("Action.String = %q", got)
	}
}

// eagerActions is an independent reference rendering: every job's
// action for every resource, in the actuator formats spelled out.
func eagerActions(topo resource.Topology, cfg resource.Config) []Action {
	var out []Action
	for r, spec := range topo {
		next := 0
		for j, a := range cfg.Jobs {
			n := a[r]
			act := Action{Kind: spec.Kind, Job: j}
			switch spec.Kind {
			case resource.Cores:
				act.Tool, act.Setting = "taskset", fmt.Sprintf("-c %d-%d", next, next+n-1)
				if n == 1 {
					act.Setting = fmt.Sprintf("-c %d", next)
				}
			case resource.LLCWays:
				act.Tool, act.Setting = "Intel CAT", fmt.Sprintf("mask 0x%x", ((1<<n)-1)<<next)
			case resource.MemBandwidth:
				act.Tool, act.Setting = "Intel MBA", fmt.Sprintf("mba %d%%", 100*n/spec.Units)
			case resource.MemCapacity:
				act.Tool, act.Setting = "memory cgroups", fmt.Sprintf("memory.limit_in_bytes %.2f %s", float64(n)*spec.UnitValue, spec.UnitLabel)
			case resource.DiskBandwidth:
				act.Tool, act.Setting = "blkio cgroups", fmt.Sprintf("blkio.throttle %.2f %s", float64(n)*spec.UnitValue, spec.UnitLabel)
			case resource.NetBandwidth:
				act.Tool, act.Setting = "qdisc", fmt.Sprintf("tbf rate %.2f %s", float64(n)*spec.UnitValue, spec.UnitLabel)
			}
			out = append(out, act)
			next += n
		}
	}
	return out
}

// TestAppliedMatchesEagerRendering checks that rendering on demand
// shows exactly what Apply used to render eagerly, for the config that
// was applied — not for whatever the caller later does to its copy —
// and that the actuation cost still counts one tool call per action.
func TestAppliedMatchesEagerRendering(t *testing.T) {
	topo := append(resource.Default(), resource.Spec{Kind: resource.NetBandwidth, Units: 8, UnitValue: 1.25, UnitLabel: "Gb/s"})
	rng := stats.NewRNG(23)
	m := NewManager(topo)
	if m.Applied() != nil {
		t.Fatal("Applied before any Apply should be nil")
	}
	var cost time.Duration
	for i := 0; i < 200; i++ {
		cfg := resource.Random(topo, 2+rng.Intn(4), rng)
		want := eagerActions(topo, cfg)
		if err := m.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		cost += time.Duration(len(want)) * perToolCost
		cfg.Jobs[0][0]++ // the manager must hold its own copy
		got := m.Applied()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: Applied = %v, want %v", i, got, want)
		}
		if err := VerifyDisjoint(got); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if m.ActuationCost() != cost {
			t.Fatalf("config %d: cost %v, want %v", i, m.ActuationCost(), cost)
		}
	}
}

// TestApplyRejectsUnknownResource keeps the missing-tool error at
// Apply time, not at Applied: a resource no actuator handles fails the
// Apply and leaves the manager with nothing applied and no cost.
func TestApplyRejectsUnknownResource(t *testing.T) {
	topo := append(resource.Small(), resource.Spec{Kind: resource.Kind(99), Units: 4, UnitValue: 1, UnitLabel: "x"})
	m := NewManager(topo)
	err := m.Apply(resource.EqualSplit(topo, 2))
	if err == nil || !strings.Contains(err.Error(), "no tool") {
		t.Fatalf("Apply over an unknown resource: err = %v, want a missing-tool error", err)
	}
	if m.Applied() != nil || m.ActuationCost() != 0 {
		t.Errorf("failed Apply changed state: %v, cost %v", m.Applied(), m.ActuationCost())
	}
}
