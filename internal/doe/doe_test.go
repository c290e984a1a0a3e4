package doe

import (
	"math"
	"testing"

	"clite/internal/core"
	"clite/internal/policies"
	"clite/internal/resource"
	"clite/internal/server"
)

func easyMix(t *testing.T, seed int64) *server.Machine {
	t.Helper()
	m := server.New(resource.Default(), server.DefaultSpec(), seed)
	if _, err := m.AddLC("memcached", 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddLC("img-dnn", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBG("streamcluster"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyInterfaces(t *testing.T) {
	var _ policies.Policy = FFD{}
	var _ policies.Policy = RSM{}
	if (FFD{}).Name() != "FFD" || (RSM{}).Name() != "RSM" {
		t.Error("bad names")
	}
}

func TestFFDUsesItsBudgetAndStaysFeasible(t *testing.T) {
	m := easyMix(t, 1)
	res, err := FFD{Samples: 48, Seed: 1}.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesUsed != 48 {
		t.Errorf("FFD used %d samples, want its 48-sample design", res.SamplesUsed)
	}
	for _, step := range res.History {
		if err := step.Config.Validate(m.Topology()); err != nil {
			t.Fatalf("FFD sampled infeasible config: %v", err)
		}
	}
}

func TestRSMUsesPaperScaleBudget(t *testing.T) {
	m := easyMix(t, 2)
	res, err := RSM{Seed: 2}.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Sec. 5.2: 130 samples for the Box-Behnken design — 2–8×
	// the budget of CLITE and the other online techniques.
	if res.SamplesUsed < 100 {
		t.Errorf("RSM used %d samples; the paper's point is that it needs 130+", res.SamplesUsed)
	}
	if err := res.Best.Validate(m.Topology()); err != nil {
		t.Fatal(err)
	}
}

func TestQuadraticFitRecoversPlantedSurface(t *testing.T) {
	// Plant a separable quadratic in normalized coordinates and verify
	// the fitted model predicts held-out points.
	topo := resource.Small()
	nJobs := 2
	truth := func(v []float64) float64 {
		var s float64
		for i, x := range v {
			n := x / float64(topo[i%len(topo)].Units)
			s += -float64(i+1) * (n - 0.5) * (n - 0.5)
		}
		return s
	}
	var hist []core.Step
	cfgSeen := map[string]bool{}
	resource.ForEachConfig(topo, nJobs, 2, func(cfg resource.Config) bool {
		if cfgSeen[cfg.Key()] {
			return true
		}
		cfgSeen[cfg.Key()] = true
		hist = append(hist, core.Step{Config: cfg.Clone(), Score: truth(cfg.Vector())})
		return len(hist) < 200
	})
	model, err := fitQuadratic(topo, hist)
	if err != nil {
		t.Fatal(err)
	}
	holdout := resource.EqualSplit(topo, nJobs)
	got := model.predict(holdout.Vector(), nil)
	want := truth(holdout.Vector())
	if math.Abs(got-want) > 0.05 {
		t.Errorf("quadratic fit predicts %v, want %v", got, want)
	}
	// The analytic gradient must match central differences, which are
	// exact on a quadratic up to rounding.
	x := holdout.Vector()
	grad := make([]float64, len(x))
	model.predict(x, grad)
	const h = 1e-3
	for i := range x {
		x[i] += h
		up := model.predict(x, nil)
		x[i] -= 2 * h
		down := model.predict(x, nil)
		x[i] += h
		if fd := (up - down) / (2 * h); math.Abs(grad[i]-fd) > 1e-8*math.Max(1, math.Abs(fd)) {
			t.Errorf("coord %d: analytic gradient %v, central difference %v", i, grad[i], fd)
		}
	}
}

func TestFitQuadraticRejectsEmptyHistory(t *testing.T) {
	if _, err := fitQuadratic(resource.Small(), nil); err == nil {
		t.Error("expected error on empty history")
	}
}

func TestParity(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 0, 7: 1, 255: 0}
	for x, want := range cases {
		if got := parity(x); got != want {
			t.Errorf("parity(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestDOENeedsMoreSamplesThanCLITEForWorseResults reproduces the
// paper's Sec. 5.2 verdict at test scale: the static designs spend a
// larger budget than CLITE without matching the oracle.
func TestDOEBudgetsExceedCLITE(t *testing.T) {
	m := easyMix(t, 3)
	clite := policies.CLITE{}
	cRes, err := clite.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := RSM{Seed: 3}.Run(easyMix(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rRes.SamplesUsed <= cRes.SamplesUsed {
		t.Errorf("RSM (%d) should need more samples than CLITE (%d)", rRes.SamplesUsed, cRes.SamplesUsed)
	}
}
