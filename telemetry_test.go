package clite_test

import (
	"bytes"
	"testing"

	"clite"
	"clite/internal/benchmarks"
)

// telemetryMix builds the quickstart machine for the determinism and
// overhead checks.
func telemetryMix(t *testing.T, seed int64) *clite.Machine {
	t.Helper()
	m := clite.NewMachine(seed)
	if _, err := m.AddLC("memcached", 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddLC("img-dnn", 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBG("streamcluster"); err != nil {
		t.Fatal(err)
	}
	return m
}

type tracedRun struct {
	key     string
	score   float64
	samples int
	jsonl   string
}

func runTraced(t *testing.T, seed int64, traced bool) tracedRun {
	t.Helper()
	m := telemetryMix(t, seed)
	opts := clite.Options{BO: clite.BOOptions{Seed: seed, MaxIterations: 6}}
	var tr *clite.Tracer
	if traced {
		tr = clite.NewTracer()
		opts = clite.WithTelemetry(opts, tr, clite.NewMetrics())
	}
	res, err := clite.NewController(m, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	out := tracedRun{key: res.Best.Key(), score: res.BestScore, samples: res.SamplesUsed}
	if traced {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out.jsonl = buf.String()
	}
	return out
}

// TestTracedRunsAreByteIdentical pins the telemetry determinism rule:
// repeated seeded runs produce the same partition, the same score, and
// the same JSONL event stream byte for byte — trace events carry only
// monotonic steps and simulated time, never wall-clock.
func TestTracedRunsAreByteIdentical(t *testing.T) {
	a := runTraced(t, 7, true)
	b := runTraced(t, 7, true)
	if a != b {
		t.Errorf("traced runs diverged:\n  first:  key=%s score=%v samples=%d\n  second: key=%s score=%v samples=%d",
			a.key, a.score, a.samples, b.key, b.score, b.samples)
		if a.jsonl != b.jsonl {
			t.Errorf("JSONL streams differ:\n--- first ---\n%s\n--- second ---\n%s", a.jsonl, b.jsonl)
		}
	}
	if a.jsonl == "" {
		t.Fatal("traced run emitted no events")
	}
}

// TestTracingDoesNotPerturbResults pins the other half of the
// contract: attaching telemetry must not change what the controller
// computes. Tracing on and off yield the same partition, score, and
// sample count.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	off := runTraced(t, 7, false)
	on := runTraced(t, 7, true)
	if off.key != on.key || off.score != on.score || off.samples != on.samples {
		t.Errorf("tracing perturbed the run:\n  off: key=%s score=%v samples=%d\n  on:  key=%s score=%v samples=%d",
			off.key, off.score, off.samples, on.key, on.score, on.samples)
	}
}

// TestTelemetryDisabledAddsNoAllocs verifies the disabled path is
// literally free at the controller level: a run with explicitly-nil
// telemetry sinks attached allocates exactly as much as a run that
// never heard of telemetry, because every instrumented site hits a
// nil-receiver guard.
func TestTelemetryDisabledAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocation noise breaks exact-count comparison")
	}
	run := func(attachNil bool) float64 {
		return testing.AllocsPerRun(2, func() {
			m := clite.NewMachine(7)
			if _, err := m.AddLC("memcached", 0.2); err != nil {
				panic(err)
			}
			if _, err := m.AddBG("swaptions"); err != nil {
				panic(err)
			}
			opts := clite.Options{BO: clite.BOOptions{Seed: 7, MaxIterations: 2, Workers: 1}}
			if attachNil {
				opts = clite.WithTelemetry(opts, nil, nil)
			}
			if _, err := clite.NewController(m, opts).Run(); err != nil {
				panic(err)
			}
		})
	}
	// Both configurations execute the identical code path, so a
	// transient mismatch is measurement noise (GC timing); re-measure
	// before declaring it a leak.
	for attempt := 0; attempt < 3; attempt++ {
		if run(false) == run(true) {
			return
		}
	}
	t.Errorf("nil telemetry sinks changed the allocation count: plain=%v nil-attached=%v", run(false), run(true))
}

// TestTelemetryOverhead is the tier-1 overhead smoke check: CLITERun
// with tracing and metrics enabled must land within 5% of the disabled
// run. The gate reads the median wall-time ratio of interleaved off/on
// pairs, so background load hits both sides alike; timing is still
// timing, so the check retries before declaring a regression.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short mode")
	}
	const tolerance = 0.05
	var o benchmarks.Overhead
	for attempt := 0; attempt < 3; attempt++ {
		o = benchmarks.TelemetryOverhead(true)
		if o.OffNs <= 0 {
			t.Fatalf("bad disabled measurement: %v ns/op", o.OffNs)
		}
		if o.Ratio <= 1+tolerance {
			return
		}
	}
	t.Errorf("telemetry overhead above %.0f%%: median paired ratio %+.1f%% over %d pairs (disabled %.0f ns/op, enabled %.0f ns/op)",
		tolerance*100, 100*(o.Ratio-1), o.Pairs, o.OffNs, o.OnNs)
}
