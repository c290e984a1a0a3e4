package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"clite/internal/par"
)

// The registry must hold exact counts when hammered from concurrent
// workers — the cluster pipeline and par.ForEach both write into it.
func TestRegistryConcurrentExactCounts(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10_000
	c := reg.Counter("test_total")
	h := reg.Histogram("test_hist", IterationBuckets())
	par.ForEach(workers, workers, func(w int) {
		// Half the workers resolve their own handles mid-flight, which
		// must return the same underlying metric.
		local := c
		if w%2 == 0 {
			local = reg.Counter("test_total")
		}
		for i := 0; i < perWorker; i++ {
			local.Inc()
			h.Observe(float64(i % 300))
			reg.Gauge("test_gauge").Set(float64(w))
		}
	})
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	wantSum := 0.0
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 300)
	}
	wantSum *= workers
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	// Bucket totals must equal the observation count (no lost updates).
	var bucketTotal int64
	for _, m := range reg.Snapshot() {
		if m.Name == "test_hist" {
			for _, bk := range m.Buckets {
				bucketTotal += bk.Count
			}
		}
	}
	if bucketTotal != workers*perWorker {
		t.Errorf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
}

// Disabled telemetry must be free: nil handles swallow calls with zero
// allocations, which is what keeps CLITERun's disabled path identical
// to the uninstrumented build.
func TestNilHandlesZeroAlloc(t *testing.T) {
	var (
		tr  *Tracer
		reg *Registry
		c   *Counter
		g   *Gauge
		h   *Histogram
	)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(BOIteration(3, 0.1, 0.8, 7))
		tr.Emit(ObservationWindow(2.0, 1, false))
		tr.Emit(QoSViolation(2.0, 0, 0.004, 0.003))
		id := tr.Begin("screen", 1)
		tr.End("screen", 1, id, 4, true)
		tr.Merge(nil, 0)
		c.Inc()
		c.Add(5)
		g.Set(1.5)
		h.Observe(0.25)
		_ = reg.Counter("x")
		_ = reg.Gauge("y")
		_ = reg.Histogram("z", nil)
		_ = reg.Snapshot()
		_ = tr.Events()
		_ = tr.Len()
	})
	if allocs != 0 {
		t.Errorf("nil-guarded telemetry allocated %.1f per run, want 0", allocs)
	}
}

func TestTracerStepsMonotonic(t *testing.T) {
	tr := NewTracer()
	tr.Emit(BOIteration(0, 0.5, 0.2, 1))
	id := tr.Begin("assess", -1)
	tr.Emit(PlacementPhase("prefilter", 2, 3, true))
	tr.End("assess", -1, id, 3, true)
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Step != int64(i)+1 {
			t.Errorf("event %d has step %d", i, ev.Step)
		}
	}
	if events[1].Span != events[3].Span || events[1].Span == 0 {
		t.Errorf("span ids unmatched: begin=%d end=%d", events[1].Span, events[3].Span)
	}
	if events[0].Iter != 0 || events[0].Job != -1 {
		t.Errorf("BOIteration fields: %+v", events[0])
	}
}

// Merge must re-stamp steps and span ids so a merged stream looks like
// it was recorded on the destination tracer, and must tag node-less
// events with the committing node.
func TestMergeRestampsAndTagsNode(t *testing.T) {
	dst := NewTracer()
	dst.Begin("a", -1) // span 1, step 1
	src := NewTracer()
	sid := src.Begin("screen", -1)
	src.Emit(BOIteration(0, 0.4, 0.1, 2))
	src.End("screen", -1, sid, 2, true)
	dst.Merge(src, 3)

	events := dst.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Step != int64(i)+1 {
			t.Errorf("event %d step = %d after merge", i, ev.Step)
		}
	}
	if events[1].Span != 2 || events[3].Span != 2 {
		t.Errorf("merged span not re-based: begin=%d end=%d", events[1].Span, events[3].Span)
	}
	for _, ev := range events[1:] {
		if ev.Node != 3 {
			t.Errorf("merged event not tagged with node: %+v", ev)
		}
	}
	// A later span on dst must not collide with the merged ids.
	if id := dst.Begin("b", -1); id != 3 {
		t.Errorf("next span id = %d, want 3", id)
	}
}

// The same sequence of emits must serialize to the same bytes — the
// foundation of the cross-run JSONL determinism tests at higher
// layers.
// TestMergeDrainRecyclesSource drains a cell tracer over several
// epochs: each drain restamps onto the destination and empties the
// source, and the source's recycled storage never aliases events the
// destination already holds.
func TestMergeDrainRecyclesSource(t *testing.T) {
	dst, src := NewTracer(), NewTracer()
	var merged []Event
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 4; i++ {
			src.Emit(PlacementPhase("verify", i, epoch, true))
		}
		dst.MergeDrain(src, 64)
		if src.Len() != 0 {
			t.Fatalf("epoch %d: source holds %d events after the drain", epoch, src.Len())
		}
		got := dst.Events()
		if len(got) != 4*(epoch+1) {
			t.Fatalf("epoch %d: destination has %d events", epoch, len(got))
		}
		for i, ev := range got {
			if ev.Step != int64(i)+1 || ev.Node != 64+i%4 || ev.N != i/4 {
				t.Fatalf("epoch %d: event %d = %+v", epoch, i, ev)
			}
		}
		for i, ev := range merged {
			if got[i] != ev {
				t.Fatalf("epoch %d: earlier event %d changed: %+v, was %+v", epoch, i, got[i], ev)
			}
		}
		merged = got
	}
}

func TestJSONLDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer()
		tr.Emit(BOIteration(1, 0.25, 0.75, 4))
		tr.Emit(QoSViolation(1.5, 2, 0.0041, 0.0030))
		tr.Emit(Termination("ei-drop", 12, 0.81))
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("JSONL streams differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"kind":"bo-iteration"`) {
		t.Errorf("missing bo-iteration line:\n%s", a.String())
	}
	if lines := strings.Count(a.String(), "\n"); lines != 3 {
		t.Errorf("want 3 lines, got %d", lines)
	}
}

func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cluster_placements_total").Add(3)
	reg.Gauge("bo_best_score").Set(0.82)
	h := reg.Histogram("bo_acq_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	out := reg.PrometheusText()
	for _, want := range []string{
		"# TYPE bo_acq_seconds histogram",
		`bo_acq_seconds_bucket{le="0.001"} 1`,
		`bo_acq_seconds_bucket{le="+Inf"} 2`,
		"bo_acq_seconds_count 2",
		"# TYPE bo_best_score gauge",
		"bo_best_score 0.82",
		"# TYPE cluster_placements_total counter",
		"cluster_placements_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, out)
		}
	}
	// Deterministic: snapshot order is sorted by name.
	if out != reg.PrometheusText() {
		t.Error("PrometheusText not deterministic")
	}
}

func TestSummaryFiltersAndAligns(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cluster_placements_total").Add(2)
	reg.Counter("cluster_cache_hits_total").Add(7)
	reg.Counter("bo_iterations_total").Add(40)
	out := reg.Summary("cluster_")
	if strings.Contains(out, "bo_iterations_total") {
		t.Errorf("prefix filter leaked: %s", out)
	}
	if !strings.Contains(out, "cluster_placements_total") || !strings.Contains(out, "7") {
		t.Errorf("summary missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 rows, got %d:\n%s", len(lines), out)
	}
	// Aligned: the value column starts at the same offset on each line.
	if strings.Index(lines[0], "  2") < 0 && strings.Index(lines[0], "  7") < 0 {
		t.Errorf("summary rows unaligned:\n%s", out)
	}
}

// Quantile interpolates within the bucket holding the rank instead of
// snapping to a bound — the obs rollup's p95 depends on it.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_hist", []float64{1, 2, 4})
	// 2 in (0,1], 2 in (1,2], 4 in (2,4], 2 in (4,+Inf).
	for _, v := range []float64{0.5, 0.9, 1.5, 1.9, 2.5, 3, 3.5, 3.9, 5, 9} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 0},     // rank 0: bottom of the first bucket
		{0.1, 0.5}, // rank 1: halfway through the first bucket
		{0.2, 1},   // rank 2: exactly the first bound
		{0.4, 2},   // rank 4: exactly the second bound
		{0.5, 2.5}, // rank 5: a quarter into (2,4]
		{0.8, 4},   // rank 8: the last finite bound
		{0.95, 4},  // overflow bucket: clamp to the last finite bound
		{1, 4},     // same
		{-0.5, 0},  // q clamps to [0,1]
		{1.5, 4},   // same
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// The snapshot view must agree with the live histogram.
	for _, m := range reg.Snapshot() {
		if m.Name == "q_hist" {
			for _, c := range cases {
				if got := m.Quantile(c.q); got != c.want {
					t.Errorf("Metric.Quantile(%v) = %v, want %v", c.q, got, c.want)
				}
			}
		}
	}
	// Empty and nil histograms answer 0.
	if got := reg.Histogram("empty", nil).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v", got)
	}
}

// A tap must see every event exactly once, in final stream order,
// including events re-stamped by Merge — the obs store's feed.
func TestTapSeesFinalStreamOrder(t *testing.T) {
	tr := NewTracer()
	var tapped []Event
	tr.SetTap(func(ev Event) { tapped = append(tapped, ev) })

	tr.Emit(BOIteration(0, 0.3, 0.1, 1))
	id := tr.Begin("place", 2)
	src := NewTracer()
	sid := src.Begin("screen", -1)
	src.End("screen", -1, sid, 1, true)
	tr.Merge(src, 2)
	tr.End("place", 2, id, 1, true)

	events := tr.Events()
	if len(tapped) != len(events) {
		t.Fatalf("tap saw %d events, tracer has %d", len(tapped), len(events))
	}
	for i := range events {
		if tapped[i] != events[i] {
			t.Errorf("tap event %d = %+v, tracer has %+v", i, tapped[i], events[i])
		}
	}
	// Merged events reach the tap already re-stamped.
	if tapped[2].Step != 3 || tapped[2].Node != 2 {
		t.Errorf("merged event not re-stamped at tap: %+v", tapped[2])
	}
	// Detach: no further deliveries.
	tr.SetTap(nil)
	tr.Emit(Termination("done", 1, 0.5))
	if len(tapped) != len(events) {
		t.Errorf("tap fired after detach")
	}
}

func TestCountKindsAndKinds(t *testing.T) {
	events := []Event{
		BOIteration(0, 1, 0, 1),
		BOIteration(1, 0.5, 0.2, 2),
		Termination("stagnation", 5, 0.7),
	}
	counts := CountKinds(events)
	if counts[KindBOIteration] != 2 || counts[KindTermination] != 1 {
		t.Errorf("counts = %v", counts)
	}
	kinds := Kinds(events)
	if len(kinds) != 2 || kinds[0] != KindBOIteration {
		t.Errorf("kinds = %v", kinds)
	}
}
