// Package isolation simulates the resource-isolation tools of the
// paper's Table 1: taskset core affinity, Intel CAT way partitioning,
// Intel MBA bandwidth limiting, and the memory/blkio/qdisc cgroup
// controls. The simulated machine cannot of course enforce anything,
// but the actuators matter for fidelity in three ways: they translate
// unit allocations into the concrete settings the real tools accept
// (disjoint core lists, contiguous way bitmasks, MBA percentage
// steps), they reject physically impossible settings, and they account
// for the actuation latency the paper measures at under 100 ms per
// reconfiguration.
package isolation

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clite/internal/resource"
)

// Action is one concrete actuator invocation, rendered the way an
// operator would see it in a log.
type Action struct {
	Tool    string
	Kind    resource.Kind
	Job     int
	Setting string // e.g. "cores 0-3", "mask 0x600", "mba 40%"
}

// String renders the action.
func (a Action) String() string {
	return fmt.Sprintf("%s[job%d]: %s", a.Tool, a.Job, a.Setting)
}

// perToolCost is the simulated latency of one actuator invocation.
// The paper reports the full reconfiguration of all tools at <100 ms;
// with five resources and up to a handful of jobs this constant lands
// in that envelope.
const perToolCost = 3 * time.Millisecond

// Manager owns the actuator state for one machine and converts
// partition configurations into per-tool settings.
type Manager struct {
	topo resource.Topology
	// applied copies the last applied configuration; Applied renders
	// its actions on demand, off the per-window path.
	applied resource.Config
	// cost accumulates simulated actuation time; the paper notes this
	// is off the hot path (overlappable with the previous window).
	cost time.Duration
}

// NewManager returns a manager for the topology.
func NewManager(t resource.Topology) *Manager {
	return &Manager{topo: t}
}

// Apply validates the configuration, confirms every resource has an
// actuator, and replaces the previous settings. A valid configuration
// gives every job exactly one action per resource, so the actuation
// cost is counted without rendering them.
func (m *Manager) Apply(cfg resource.Config) error {
	if err := m.check(cfg); err != nil {
		return err
	}
	m.applied.CopyFrom(cfg)
	m.cost += time.Duration(len(m.topo)*cfg.NumJobs()) * perToolCost
	return nil
}

// check is Apply's admission test: the configuration must be feasible
// and every resource kind must have a tool.
func (m *Manager) check(cfg resource.Config) error {
	if err := cfg.Validate(m.topo); err != nil {
		return fmt.Errorf("isolation: %w", err)
	}
	for _, spec := range m.topo {
		if _, ok := renderResource(spec, nil, nil); !ok {
			return fmt.Errorf("isolation: no tool for resource %v", spec.Kind)
		}
	}
	return nil
}

// Reset forgets the applied settings and cost, like a new manager.
func (m *Manager) Reset() {
	m.applied.Jobs = m.applied.Jobs[:0]
	m.cost = 0
}

// Applied renders the actuator invocations of the last applied
// configuration (nil before the first Apply).
func (m *Manager) Applied() []Action {
	var actions []Action
	shares := make([]int, m.applied.NumJobs())
	for r, spec := range m.topo {
		for j, a := range m.applied.Jobs {
			shares[j] = a[r]
		}
		actions, _ = renderResource(spec, shares, actions)
	}
	return actions
}

// ActuationCost returns the cumulative simulated actuation latency.
func (m *Manager) ActuationCost() time.Duration { return m.cost }

// renderResource appends one resource's tool actions to out. Shares
// are validated (they sum to the resource's units, so no core block or
// way mask overflows); ok is false when no tool handles the resource.
// Nil shares append nothing: Apply's tool check.
func renderResource(spec resource.Spec, shares []int, out []Action) (actions []Action, ok bool) {
	switch spec.Kind {
	case resource.Cores:
		return renderTaskset(spec, shares, out), true
	case resource.LLCWays:
		return renderCAT(spec, shares, out), true
	case resource.MemBandwidth:
		return renderPercent(spec, shares, out, "Intel MBA", "mba"), true
	case resource.MemCapacity:
		return renderCapacity(spec, shares, out, "memory cgroups", "memory.limit_in_bytes"), true
	case resource.DiskBandwidth:
		return renderCapacity(spec, shares, out, "blkio cgroups", "blkio.throttle"), true
	case resource.NetBandwidth:
		return renderCapacity(spec, shares, out, "qdisc", "tbf rate"), true
	default:
		return out, false
	}
}

// renderTaskset assigns each job a disjoint, contiguous block of
// logical CPU ids, the way taskset -c pins co-located jobs.
func renderTaskset(spec resource.Spec, shares []int, out []Action) []Action {
	next := 0
	for j, n := range shares {
		lo, hi := next, next+n-1
		setting := fmt.Sprintf("-c %d-%d", lo, hi)
		if n == 1 {
			setting = fmt.Sprintf("-c %d", lo)
		}
		out = append(out, Action{Tool: "taskset", Kind: spec.Kind, Job: j, Setting: setting})
		next = hi + 1
	}
	return out
}

// renderCAT assigns each job a contiguous way bitmask; Intel CAT
// requires masks of contiguous set bits.
func renderCAT(spec resource.Spec, shares []int, out []Action) []Action {
	shift := 0
	for j, n := range shares {
		mask := ((1 << n) - 1) << shift
		out = append(out, Action{
			Tool: "Intel CAT", Kind: spec.Kind, Job: j,
			Setting: fmt.Sprintf("mask 0x%x", mask),
		})
		shift += n
	}
	return out
}

// renderPercent expresses shares as percentages of the resource, the
// granularity Intel MBA exposes.
func renderPercent(spec resource.Spec, shares []int, out []Action, tool, verb string) []Action {
	for j, n := range shares {
		pct := 100 * n / spec.Units
		out = append(out, Action{
			Tool: tool, Kind: spec.Kind, Job: j,
			Setting: fmt.Sprintf("%s %d%%", verb, pct),
		})
	}
	return out
}

// renderCapacity expresses shares in the resource's physical unit.
func renderCapacity(spec resource.Spec, shares []int, out []Action, tool, verb string) []Action {
	for j, n := range shares {
		amount := float64(n) * spec.UnitValue
		out = append(out, Action{
			Tool: tool, Kind: spec.Kind, Job: j,
			Setting: fmt.Sprintf("%s %.2f %s", verb, amount, spec.UnitLabel),
		})
	}
	return out
}

// VerifyDisjoint checks that the current action set partitions every
// exclusive resource without overlap (cores, LLC ways). It exists so
// tests (and paranoid callers) can audit the actuator translation.
func VerifyDisjoint(actions []Action) error {
	coresSeen := map[int]int{}
	var wayMasks []int
	for _, a := range actions {
		switch a.Tool {
		case "taskset":
			lo, hi, err := parseCoreRange(a.Setting)
			if err != nil {
				return err
			}
			for c := lo; c <= hi; c++ {
				if owner, dup := coresSeen[c]; dup {
					return fmt.Errorf("isolation: core %d assigned to jobs %d and %d", c, owner, a.Job)
				}
				coresSeen[c] = a.Job
			}
		case "Intel CAT":
			var mask int
			if _, err := fmt.Sscanf(a.Setting, "mask 0x%x", &mask); err != nil {
				return fmt.Errorf("isolation: bad CAT setting %q", a.Setting)
			}
			for _, other := range wayMasks {
				if mask&other != 0 {
					return fmt.Errorf("isolation: overlapping CAT masks 0x%x and 0x%x", mask, other)
				}
			}
			wayMasks = append(wayMasks, mask)
		}
	}
	return nil
}

func parseCoreRange(setting string) (lo, hi int, err error) {
	s := strings.TrimPrefix(setting, "-c ")
	if strings.Contains(s, "-") {
		if _, err := fmt.Sscanf(s, "%d-%d", &lo, &hi); err != nil {
			return 0, 0, fmt.Errorf("isolation: bad taskset setting %q", setting)
		}
		return lo, hi, nil
	}
	if _, err := fmt.Sscanf(s, "%d", &lo); err != nil {
		return 0, 0, fmt.Errorf("isolation: bad taskset setting %q", setting)
	}
	return lo, lo, nil
}

// Table1 renders the paper's Table 1 (shared resources, allocation
// methods, isolation tools) for the topology, for documentation
// commands.
func Table1(t resource.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-26s %-16s %s\n", "Shared Resource", "Allocation Method", "Isolation Tool", "Units")
	kinds := make([]resource.Spec, len(t))
	copy(kinds, t)
	sort.SliceStable(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
	for _, spec := range kinds {
		fmt.Fprintf(&b, "%-18s %-26s %-16s %d × %.2f %s\n",
			spec.Kind, spec.Kind.AllocationMethod(), spec.Kind.IsolationTool(),
			spec.Units, spec.UnitValue, spec.UnitLabel)
	}
	return b.String()
}
