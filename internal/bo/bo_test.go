package bo

import (
	"errors"
	"math"
	"testing"

	"clite/internal/resource"
	"clite/internal/stats"
	"clite/internal/telemetry"
)

func TestAcquisitionEIKnownValues(t *testing.T) {
	ei := EI{Zeta: 0}
	// σ=0 → 0 (Eq. 2's second branch).
	if got := ei.Value(5, 0, 1); got != 0 {
		t.Errorf("EI with σ=0 = %v, want 0", got)
	}
	// mean == best, σ=1: EI = φ(0) = 0.3989...
	if got := ei.Value(1, 1, 1); math.Abs(got-0.3989422804014327) > 1e-9 {
		t.Errorf("EI = %v, want φ(0)", got)
	}
	// Far above best: EI ≈ improvement.
	if got := ei.Value(10, 0.1, 1); math.Abs(got-9) > 0.01 {
		t.Errorf("EI = %v, want ≈9", got)
	}
	// Far below best: EI ≈ 0 but non-negative.
	if got := ei.Value(-10, 0.1, 1); got < 0 || got > 1e-6 {
		t.Errorf("EI = %v, want ≈0+", got)
	}
}

func TestAcquisitionZetaEncouragesExploration(t *testing.T) {
	// With a larger ζ, a merely-average point scores relatively lower,
	// shifting preference toward high-variance points.
	meanish := func(zeta float64) float64 { return EI{Zeta: zeta}.Value(1.01, 0.01, 1) }
	uncertain := func(zeta float64) float64 { return EI{Zeta: zeta}.Value(1.0, 0.3, 1) }
	smallZetaRatio := uncertain(0.001) / meanish(0.001)
	bigZetaRatio := uncertain(0.2) / meanish(0.2)
	if bigZetaRatio <= smallZetaRatio {
		t.Errorf("larger ζ should favour uncertainty: %v vs %v", bigZetaRatio, smallZetaRatio)
	}
}

func TestAcquisitionPIAndUCB(t *testing.T) {
	pi := PI{Zeta: 0}
	if got := pi.Value(2, 1, 1); math.Abs(got-0.8413447460685429) > 1e-9 {
		t.Errorf("PI = %v, want Φ(1)", got)
	}
	if got := pi.Value(2, 0, 1); got != 0 {
		t.Errorf("PI with σ=0 = %v", got)
	}
	ucb := UCB{Beta: 2}
	if got := ucb.Value(1, 0.5, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("UCB = %v, want 1", got)
	}
	if got := ucb.Value(0, 0.1, 10); got != 0 {
		t.Errorf("UCB should clamp at 0: %v", got)
	}
	for _, a := range []Acquisition{EI{Zeta: 0.01}, PI{Zeta: 0.01}, UCB{Beta: 2}} {
		if a.Name() == "" {
			t.Error("acquisitions must be named")
		}
	}
}

// bowlEval builds a deterministic objective over configs: a concave
// bowl peaked at `target` with per-job performance curves, emulating
// the Eq. 3 score shape (bounded to [0,1]).
func bowlEval(topo resource.Topology, target resource.Config) EvalFunc {
	norm := 0.0
	for _, a := range target.Jobs {
		for r := range a {
			u := float64(topo[r].Units)
			norm += u * u
		}
	}
	return func(cfg resource.Config) (Evaluation, error) {
		var d float64
		jobPerf := make([]float64, len(cfg.Jobs))
		for j := range cfg.Jobs {
			var dj float64
			for r := range cfg.Jobs[j] {
				diff := float64(cfg.Jobs[j][r] - target.Jobs[j][r])
				dj += diff * diff
			}
			jobPerf[j] = 1 - dj/norm
			d += dj
		}
		return Evaluation{Score: 1 - d/norm, JobPerf: jobPerf}, nil
	}
}

func mustTarget(topo resource.Topology, nJobs int, seed int64) resource.Config {
	return resource.Random(topo, nJobs, stats.NewRNG(seed))
}

func TestRunValidation(t *testing.T) {
	topo := resource.Small()
	if _, err := Run(topo, 0, nil, Options{}); err == nil {
		t.Error("zero jobs should fail")
	}
	if _, err := Run(topo, 50, nil, Options{}); err == nil {
		t.Error("more jobs than units should fail")
	}
}

func TestRunPropagatesEvalErrors(t *testing.T) {
	topo := resource.Small()
	boom := errors.New("boom")
	_, err := Run(topo, 2, func(resource.Config) (Evaluation, error) {
		return Evaluation{}, boom
	}, Options{Seed: 1})
	if !errors.Is(err, boom) {
		t.Errorf("expected eval error to propagate, got %v", err)
	}
}

func TestBootstrapIsEngineeredByDefault(t *testing.T) {
	topo := resource.Small()
	nJobs := 3
	var first []resource.Config
	eval := func(cfg resource.Config) (Evaluation, error) {
		if len(first) < nJobs+1 {
			first = append(first, cfg.Clone())
		}
		return Evaluation{Score: 0.5, JobPerf: []float64{0.5, 0.5, 0.5}}, nil
	}
	if _, err := Run(topo, nJobs, eval, Options{Seed: 2, MaxIterations: 1}); err != nil {
		t.Fatal(err)
	}
	if !first[0].Equal(resource.EqualSplit(topo, nJobs)) {
		t.Errorf("first bootstrap sample should be the equal split: %v", first[0])
	}
	for j := 0; j < nJobs; j++ {
		if !first[j+1].Equal(resource.Extremum(topo, nJobs, j)) {
			t.Errorf("bootstrap sample %d should be job %d's extremum: %v", j+1, j, first[j+1])
		}
	}
}

func TestRandomBootstrapAblation(t *testing.T) {
	topo := resource.Small()
	nJobs := 2
	var first resource.Config
	got := false
	eval := func(cfg resource.Config) (Evaluation, error) {
		if !got {
			first = cfg.Clone()
			got = true
		}
		return Evaluation{Score: 0.5, JobPerf: []float64{0.5, 0.5}}, nil
	}
	if _, err := Run(topo, nJobs, eval, Options{Seed: 3, MaxIterations: 1, RandomBootstrap: true}); err != nil {
		t.Fatal(err)
	}
	if first.Equal(resource.EqualSplit(topo, nJobs)) {
		t.Error("random bootstrap should not start with the equal split (for this seed)")
	}
}

func TestRunFindsBowlOptimum(t *testing.T) {
	topo := resource.Small()
	nJobs := 2
	target := mustTarget(topo, nJobs, 99)
	res, err := Run(topo, nJobs, bowlEval(topo, target), Options{Seed: 4, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Eval.Score < 0.98 {
		t.Errorf("BO best score = %v (best config %v, target %v)", res.Best.Eval.Score, res.Best.Config, target)
	}
	for _, s := range res.Samples {
		if err := s.Config.Validate(topo); err != nil {
			t.Fatalf("sampled infeasible config: %v", err)
		}
	}
}

func TestRunBeatsRandomSearchAtEqualBudget(t *testing.T) {
	topo := resource.Default()
	nJobs := 3
	target := mustTarget(topo, nJobs, 7)
	eval := bowlEval(topo, target)
	res, err := Run(topo, nJobs, eval, Options{Seed: 5, MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	budget := len(res.Samples)
	rng := stats.NewRNG(5)
	bestRandom := math.Inf(-1)
	for i := 0; i < budget; i++ {
		ev, _ := eval(resource.Random(topo, nJobs, rng))
		if ev.Score > bestRandom {
			bestRandom = ev.Score
		}
	}
	if res.Best.Eval.Score <= bestRandom {
		t.Errorf("BO (%v) should beat random search (%v) at %d samples", res.Best.Eval.Score, bestRandom, budget)
	}
}

func TestRunConvergesAndTracksEI(t *testing.T) {
	topo := resource.Small()
	nJobs := 2
	target := mustTarget(topo, nJobs, 13)
	res, err := Run(topo, nJobs, bowlEval(topo, target), Options{Seed: 6, MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("smooth bowl should trigger EI-drop termination within 60 iterations")
	}
	if res.Iterations >= 60 {
		t.Error("termination should fire before the cap")
	}
	if len(res.EITrace) != res.Iterations {
		t.Errorf("EI trace length %d vs iterations %d", len(res.EITrace), res.Iterations)
	}
	// The trace should end below its peak (the drop in expected
	// improvement that triggers termination).
	peak := stats.Max(res.EITrace)
	last := res.EITrace[len(res.EITrace)-1]
	if last >= peak {
		t.Errorf("EI should drop by termination: peak %v, last %v", peak, last)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	topo := resource.Small()
	nJobs := 2
	target := mustTarget(topo, nJobs, 21)
	run := func() Result {
		res, err := Run(topo, nJobs, bowlEval(topo, target), Options{Seed: 77, MaxIterations: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if !a.Samples[i].Config.Equal(b.Samples[i].Config) {
			t.Fatalf("sample %d differs between identical runs", i)
		}
	}
}

func TestRunNeverRepeatsConfigurations(t *testing.T) {
	topo := resource.Small()
	nJobs := 3
	target := mustTarget(topo, nJobs, 31)
	res, err := Run(topo, nJobs, bowlEval(topo, target), Options{Seed: 8, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Samples {
		k := s.Config.Key()
		if seen[k] {
			t.Fatalf("configuration %s sampled twice", k)
		}
		seen[k] = true
	}
}

func TestDropoutVariantsStillOptimize(t *testing.T) {
	topo := resource.Small()
	nJobs := 3
	target := mustTarget(topo, nJobs, 41)
	for _, opts := range []Options{
		{Seed: 9, MaxIterations: 30, DisableDropout: true},
		{Seed: 9, MaxIterations: 30, RandomDropout: true},
		{Seed: 9, MaxIterations: 30, KernelFamily: "rbf"},
		{Seed: 9, MaxIterations: 30, Acquisition: PI{Zeta: 0.01}},
		{Seed: 9, MaxIterations: 30, Acquisition: UCB{Beta: 2}},
	} {
		res, err := Run(topo, nJobs, bowlEval(topo, target), opts)
		if err != nil {
			t.Fatalf("options %+v: %v", opts, err)
		}
		if res.Best.Eval.Score < 0.9 {
			t.Errorf("options %+v: best score %v too low", opts, res.Best.Eval.Score)
		}
	}
}

// TestRunSingleJobDegenerateSpace: one job owns everything, so the
// space has a single configuration. The engineered bootstrap collapses
// onto it, and the exhaustion rule stops the run before any
// acquisition step, with or without warm-start seeds.
func TestRunSingleJobDegenerateSpace(t *testing.T) {
	topo := resource.Default()
	only := resource.EqualSplit(topo, 1)
	for _, seeds := range [][]resource.Config{nil, {only}} {
		calls := 0
		eval := func(cfg resource.Config) (Evaluation, error) {
			calls++
			return Evaluation{Score: 1, JobPerf: []float64{1}}, nil
		}
		tr := telemetry.NewTracer()
		res, err := Run(topo, 1, eval, Options{Seed: 10, SeedConfigs: seeds, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 || len(res.Samples) != 1 || res.Iterations != 0 {
			t.Errorf("seeds %d: %d evaluations, %d samples, %d iterations; want 1, 1, 0",
				len(seeds), calls, len(res.Samples), res.Iterations)
		}
		if !res.Converged || res.Best.Eval.Score != 1 {
			t.Errorf("seeds %d: converged %t, best %v", len(seeds), res.Converged, res.Best.Eval.Score)
		}
		if reason := terminationReason(t, tr); reason != "exhausted" {
			t.Errorf("seeds %d: termination %q, want exhausted", len(seeds), reason)
		}
	}
}

// TestRunStopsWhenSpaceExhausted: two jobs over two 3-unit resources
// have 2·2 = 4 feasible configurations. A run with a budget far beyond
// that samples each exactly once and stops.
func TestRunStopsWhenSpaceExhausted(t *testing.T) {
	topo := resource.Topology{
		{Kind: resource.Cores, Units: 3, UnitValue: 1},
		{Kind: resource.LLCWays, Units: 3, UnitValue: 1},
	}
	if n := topo.ConfigCount(2); n != 4 {
		t.Fatalf("ConfigCount(2) = %d, want 4", n)
	}
	target := resource.Config{Jobs: []resource.Allocation{{2, 1}, {1, 2}}}
	tr := telemetry.NewTracer()
	res, err := Run(topo, 2, bowlEval(topo, target), Options{Seed: 3, MaxIterations: 80, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Samples {
		seen[s.Config.Key()] = true
	}
	if len(res.Samples) != 4 || len(seen) != 4 {
		t.Fatalf("%d samples over %d distinct configurations, want 4 and 4", len(res.Samples), len(seen))
	}
	if !res.Converged || terminationReason(t, tr) != "exhausted" {
		t.Errorf("converged %t, termination %q; want an exhausted stop", res.Converged, terminationReason(t, tr))
	}
	if !res.Best.Config.Equal(target) {
		t.Errorf("best %s, want %s", res.Best.Config.Key(), target.Key())
	}
}

// terminationReason returns the name of the trace's single
// termination event.
func terminationReason(t *testing.T, tr *telemetry.Tracer) string {
	t.Helper()
	reason, n := "", 0
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindTermination {
			reason = ev.Name
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d termination events, want 1", n)
	}
	return reason
}
