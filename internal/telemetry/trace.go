package telemetry

import (
	"slices"
	"sync"
)

// Event kinds. Each kind fixes which Event fields are meaningful; the
// taxonomy is catalogued in DESIGN.md §10.
const (
	KindBOIteration       = "bo-iteration"       // one optimizer step: Iter, Value=EI*, Aux=best score, N=samples
	KindObservationWindow = "observation-window" // one measurement window: At, N=violations, OK=all QoS met
	KindQoSViolation      = "qos-violation"      // one LC job over target: At, Job, Value=p95, Aux=target
	KindPlacementPhase    = "placement-phase"    // one pipeline phase: Name, Node, N=work units, OK
	KindFaultInjected     = "fault-injected"     // injector fired: Name=fault class, At
	KindResilienceAction  = "resilience-action"  // hardened controller acted: Name=action, N=attempt
	KindTermination       = "termination"        // search ended: Name=reason, N=samples, Value=best score
	KindSpanBegin         = "span-begin"         // Name, Span
	KindSpanEnd           = "span-end"           // Name, Span, matching begin's id
	KindLeaderElected     = "leader-elected"     // replica group chose a leader: At, Node=replica id, N=term
	KindReplicaDied       = "replica-died"       // controller replica lost: At, Node=replica id, Name=cause, N=still alive
	KindFailoverComplete  = "failover-complete"  // group serving again: At, Node=new leader, N=term, Value=unavailability (s)
	KindJobArrival        = "job-arrival"        // fleet arrival assigned to a cell: At, Name=workload, Node=cell, N=attempt, Value=load
	KindJobDeparture      = "job-departure"      // fleet job left its node: At, Name=workload, Node=global node
	KindFleetEpoch        = "fleet-epoch"        // epoch barrier crossed: At, Iter=epoch, N=placements this epoch, Value=fleet demand estimate
	KindSLOBurnAlert      = "slo-burn-alert"     // error budget burning too fast: At, Name=subject, Job=subject id, Value=fast-window burn rate, Aux=slow-window burn rate
	KindBudgetExhausted   = "budget-exhausted"   // error budget fully spent: At, Name=subject, Job=subject id, Value=budget consumed (≥1)
)

// Event is one entry on a run's timeline. Events never carry
// wall-clock readings: Step is a per-tracer monotonic sequence number
// and At is simulated time (seconds of observation windows), so a
// seeded run produces the same event stream on every machine.
//
// Int fields use -1 for "not applicable" rather than omitting the
// field, so job 0 and node 0 stay representable.
type Event struct {
	Step  int64   `json:"step"`
	Kind  string  `json:"kind"`
	Name  string  `json:"name,omitempty"`
	At    float64 `json:"at"`    // simulated seconds; -1 when the event has no clock
	Iter  int     `json:"iter"`  // optimizer iteration; -1 when n/a
	Job   int     `json:"job"`   // job index; -1 when n/a
	Node  int     `json:"node"`  // cluster node; -1 when n/a
	Span  int64   `json:"span"`  // span id for span-begin/span-end; 0 otherwise
	N     int     `json:"n"`     // kind-specific count (samples, violations, attempt...)
	Value float64 `json:"value"` // kind-specific primary value (EI*, p95, score...)
	Aux   float64 `json:"aux"`   // kind-specific secondary value (best score, target...)
	OK    bool    `json:"ok"`
}

// Tracer accumulates a run's event timeline. The nil Tracer discards
// everything, so instrumentation sites emit unconditionally. A Tracer
// is safe for concurrent use, but for deterministic streams concurrent
// writers must record into private Tracers that are merged in a fixed
// order (see Merge and DESIGN.md §10).
type Tracer struct {
	mu     sync.Mutex
	events []Event
	spans  int64
	tap    func(Event)
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetTap registers fn to observe every event as it lands on t's
// timeline — the subscription hook the SLO observability plane
// (internal/obs) hangs off. fn sees each event exactly once, fully
// stamped, in final stream order: events merged from private tracers
// (Merge, MergeDrain) reach the tap at merge time in merge order, so
// for a deterministic stream the tap's view is deterministic too.
//
// fn runs under the tracer's lock. It must be fast and must not call
// back into t (that would deadlock) or into any lock ordered before
// the tracer's. Passing nil detaches. The nil Tracer discards the
// call.
func (t *Tracer) SetTap(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tap = fn
	t.mu.Unlock()
}

// Emit appends ev, stamping its Step with the next sequence number.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Step = int64(len(t.events)) + 1
	t.events = append(t.events, ev)
	if t.tap != nil {
		t.tap(ev)
	}
	t.mu.Unlock()
}

// Begin opens a named span and returns its id (0 for the nil Tracer).
func (t *Tracer) Begin(name string, node int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.spans++
	id := t.spans
	ev := Event{
		Step: int64(len(t.events)) + 1,
		Kind: KindSpanBegin, Name: name,
		At: -1, Iter: -1, Job: -1, Node: node, Span: id,
	}
	t.events = append(t.events, ev)
	if t.tap != nil {
		t.tap(ev)
	}
	t.mu.Unlock()
	return id
}

// End closes the span opened by Begin. n and ok summarize the span's
// outcome (work units processed, success).
func (t *Tracer) End(name string, node int, id int64, n int, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev := Event{
		Step: int64(len(t.events)) + 1,
		Kind: KindSpanEnd, Name: name,
		At: -1, Iter: -1, Job: -1, Node: node, Span: id, N: n, OK: ok,
	}
	t.events = append(t.events, ev)
	if t.tap != nil {
		t.tap(ev)
	}
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 for the nil Tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the timeline (nil for the nil Tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Merge appends src's events onto t, re-stamping steps and span ids to
// continue t's sequences and tagging events that carry no node with
// the given node. This is how concurrent cluster screening stays
// deterministic: each speculative screen records into a private
// tracer, and only the committed screen is merged — in commit order,
// under the scheduler's lock — so the final stream is independent of
// worker count and interleaving.
func (t *Tracer) Merge(src *Tracer, node int) {
	if t == nil || src == nil {
		return
	}
	events := src.Events()
	t.mu.Lock()
	stepBase := int64(len(t.events))
	spanBase := t.spans
	for _, ev := range events {
		ev.Step += stepBase
		if ev.Span != 0 {
			ev.Span += spanBase
		}
		if ev.Node < 0 {
			ev.Node = node
		}
		t.events = append(t.events, ev)
		if t.tap != nil {
			t.tap(ev)
		}
	}
	src.mu.Lock()
	t.spans = spanBase + src.spans
	src.mu.Unlock()
	t.mu.Unlock()
}

// MergeDrain atomically takes src's whole timeline, appends it onto t
// with steps and span ids re-stamped to continue t's sequences, and
// resets src to empty so the next drain starts fresh — keeping src's
// storage, so a tracer drained every epoch stops regrowing. Non-negative
// Node fields are shifted by nodeShift — how a cell-local tracer's
// node ids (0..cellNodes-1) are translated into the fleet's global
// node namespace — while nodeless events (Node < 0) stay unattributed.
// Like Merge, determinism is the caller's contract: concurrent cells
// record into private tracers and the fleet drains them at the epoch
// barrier in cell order, so the merged stream is byte-identical for
// every shard count.
func (t *Tracer) MergeDrain(src *Tracer, nodeShift int) {
	if t == nil || src == nil {
		return
	}
	src.mu.Lock()
	events := src.events
	srcSpans := src.spans
	src.events = nil
	src.spans = 0
	src.mu.Unlock()
	t.mu.Lock()
	stepBase := int64(len(t.events))
	spanBase := t.spans
	t.events = slices.Grow(t.events, len(events))
	for _, ev := range events {
		ev.Step += stepBase
		if ev.Span != 0 {
			ev.Span += spanBase
		}
		if ev.Node >= 0 {
			ev.Node += nodeShift
		}
		t.events = append(t.events, ev)
		if t.tap != nil {
			t.tap(ev)
		}
	}
	t.spans = spanBase + srcSpans
	t.mu.Unlock()
	src.mu.Lock()
	if src.events == nil { // nothing recorded since: recycle the storage
		src.events = events[:0]
	}
	src.mu.Unlock()
}

// BOIteration records one optimizer step: the acquisition maximum
// (expected improvement), the best objective score so far, and the
// number of samples evaluated.
func BOIteration(iter int, eiStar, best float64, samples int) Event {
	return Event{
		Kind: KindBOIteration, At: -1,
		Iter: iter, Job: -1, Node: -1,
		Value: eiStar, Aux: best, N: samples,
	}
}

// ObservationWindow records one measurement window at simulated time
// at: how many LC jobs violated their target and whether all QoS held.
func ObservationWindow(at float64, violations int, allMet bool) Event {
	return Event{
		Kind: KindObservationWindow, At: at,
		Iter: -1, Job: -1, Node: -1,
		N: violations, OK: allMet,
	}
}

// QoSViolation records one LC job exceeding its target in the window
// at simulated time at: measured p95 vs the QoS target, in seconds.
func QoSViolation(at float64, job int, p95, target float64) Event {
	return Event{
		Kind: KindQoSViolation, At: at,
		Iter: -1, Job: job, Node: -1,
		Value: p95, Aux: target,
	}
}

// PlacementPhase records one cluster-pipeline phase outcome (assess,
// cache-verify, screen, commit, admit, reject...): the node involved
// (-1 for cluster-wide phases), work units processed, and success.
func PlacementPhase(phase string, node, n int, ok bool) Event {
	return Event{
		Kind: KindPlacementPhase, Name: phase, At: -1,
		Iter: -1, Job: -1, Node: node,
		N: n, OK: ok,
	}
}

// FaultInjected records the injector firing one fault of the given
// class ("transient", "outlier", "partial-actuation", "node-failure")
// at simulated time at.
func FaultInjected(at float64, kind string) Event {
	return Event{
		Kind: KindFaultInjected, Name: kind, At: at,
		Iter: -1, Job: -1, Node: -1,
	}
}

// ResilienceAction records the hardened controller reacting ("retry",
// "remeasure", "confirm-violation", "fallback", "guard",
// "salvage-restart"); attempt is the kind-specific attempt or pass
// number.
func ResilienceAction(action string, attempt int) Event {
	return Event{
		Kind: KindResilienceAction, Name: action, At: -1,
		Iter: -1, Job: -1, Node: -1,
		N: attempt,
	}
}

// LeaderElected records the replica group electing replica id as
// leader for the given term at simulated time at.
func LeaderElected(at float64, id, term int) Event {
	return Event{
		Kind: KindLeaderElected, At: at,
		Iter: -1, Job: -1, Node: id,
		N: term,
	}
}

// ReplicaDied records a controller replica dying at simulated time at
// ("scheduled", "rate", "kill"); alive is the number of replicas still
// up afterwards.
func ReplicaDied(at float64, id int, cause string, alive int) Event {
	return Event{
		Kind: KindReplicaDied, Name: cause, At: at,
		Iter: -1, Job: -1, Node: id,
		N: alive,
	}
}

// FailoverComplete records the group serving again after a leader
// loss: the new leader, its term, and the unavailability window in
// simulated seconds (death to first servable instant).
func FailoverComplete(at float64, id, term int, window float64) Event {
	return Event{
		Kind: KindFailoverComplete, At: at,
		Iter: -1, Job: -1, Node: id,
		N: term, Value: window,
	}
}

// JobArrival records a fleet arrival being assigned to a cell by the
// mean-field pre-partitioner: the workload, its offered load, the cell
// index chosen, and the placement attempt (1 for first try, higher for
// cross-cell retries after a rejection or a node death).
func JobArrival(at float64, workload string, cell, attempt int, load float64) Event {
	return Event{
		Kind: KindJobArrival, Name: workload, At: at,
		Iter: -1, Job: -1, Node: cell,
		N: attempt, Value: load,
	}
}

// JobDeparture records a fleet job leaving its node at the end of its
// service time: the workload and the global node id it vacated.
func JobDeparture(at float64, workload string, node int) Event {
	return Event{
		Kind: KindJobDeparture, Name: workload, At: at,
		Iter: -1, Job: -1, Node: node,
	}
}

// FleetEpoch records one epoch barrier: the epoch index, how many
// placements committed inside it, and the partitioner's fleet-wide
// demand estimate (node-equivalents of resident load) at the barrier.
func FleetEpoch(at float64, epoch, placed int, demand float64) Event {
	return Event{
		Kind: KindFleetEpoch, At: at,
		Iter: epoch, Job: -1, Node: -1,
		N: placed, Value: demand,
	}
}

// SLOBurnAlert records an SLO subject (a job, a cell, the fleet, or
// the machine-wide window stream) burning its error budget faster than
// the alerting threshold in both the fast and slow windows at
// simulated time at. subject names the series ("job:memcached",
// "cell:3", "fleet", "windows"); id is the job or cell index (-1 for
// aggregates); fast and slow are the two windows' burn rates
// (bad-fraction ÷ budget, so 1.0 spends the budget exactly at the
// window's end).
func SLOBurnAlert(at float64, subject string, id int, fast, slow float64) Event {
	return Event{
		Kind: KindSLOBurnAlert, Name: subject, At: at,
		Iter: -1, Job: id, Node: -1,
		Value: fast, Aux: slow,
	}
}

// BudgetExhausted records an SLO subject having spent its whole error
// budget within the slow window at simulated time at: consumed is the
// budget multiple (≥1 at emission).
func BudgetExhausted(at float64, subject string, id int, consumed float64) Event {
	return Event{
		Kind: KindBudgetExhausted, Name: subject, At: at,
		Iter: -1, Job: id, Node: -1,
		Value: consumed,
	}
}

// Termination records why a search ended ("ei-drop", "stagnation",
// "exhausted", "iteration-cap", "infeasible", "fallback"), with the
// sample count and best objective score at that point.
func Termination(reason string, samples int, best float64) Event {
	return Event{
		Kind: KindTermination, Name: reason, At: -1,
		Iter: -1, Job: -1, Node: -1,
		N: samples, Value: best,
	}
}
