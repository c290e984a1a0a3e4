package core

import (
	"testing"

	"clite/internal/bo"
	"clite/internal/resource"
	"clite/internal/server"
)

// TestRunWarmSeedsReplaceBootstrap checks the profile-cache warm-start
// path: RunWarm must evaluate exactly the given seed partitions instead
// of the Njobs+3 engineered bootstrap samples, and over seeds 1–20 the
// warm search must be cheaper on average than the cold one it seeds
// from. (Per seed it need not be: the search after the bootstrap
// follows a different sample set and may iterate longer.)
func TestRunWarmSeedsReplaceBootstrap(t *testing.T) {
	mix := func(seed int64) *server.Machine {
		m := server.New(resource.Default(), server.DefaultSpec(), seed)
		mustAddLC(t, m, "memcached", 0.2)
		mustAddBG(t, m, "swaptions")
		return m
	}

	// Bootstrap: with one acquisition step, the warm run's history is
	// the seeds, in order, then that step; the cold run's is the
	// engineered bootstrap then that step.
	m := mix(9)
	seeds := []resource.Config{resource.Extremum(m.Topology(), 2, 0), resource.EqualSplit(m.Topology(), 2)}
	one := bo.Options{Seed: 9, MaxIterations: 1}
	warm, err := New(m, Options{BO: one}).RunWarm(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SamplesUsed != len(seeds)+1 {
		t.Fatalf("warm run with %d seeds and one step used %d samples", len(seeds), warm.SamplesUsed)
	}
	for i, s := range seeds {
		if !warm.History[i].Config.Equal(s) {
			t.Errorf("sample %d is %v, want seed %v", i, warm.History[i].Config, s)
		}
	}
	cold, err := New(m, Options{BO: one}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cold.SamplesUsed <= warm.SamplesUsed {
		t.Errorf("cold run with one step used %d samples, warm %d: the engineered bootstrap did not run", cold.SamplesUsed, warm.SamplesUsed)
	}

	// Savings: seeded from each cold run's best partition, the warm run
	// keeps feasibility and uses fewer samples on average.
	var coldSum, warmSum, runs int
	for seed := int64(1); seed <= 20; seed++ {
		m := mix(seed)
		c := New(m, Options{BO: bo.Options{Seed: seed}})
		cold, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !cold.QoSMeetable {
			continue
		}
		warm, err := c.RunWarm([]resource.Config{cold.Best})
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.Best.Validate(m.Topology()); err != nil {
			t.Fatal(err)
		}
		if !warm.QoSMeetable {
			t.Errorf("seed %d: warm run lost feasibility (score %v)", seed, warm.BestScore)
		}
		if len(warm.History) == 0 || !warm.History[0].Config.Equal(cold.Best) {
			t.Errorf("seed %d: seed partition must be the first evaluated configuration", seed)
		}
		coldSum += cold.SamplesUsed
		warmSum += warm.SamplesUsed
		runs++
	}
	if runs < 10 {
		t.Fatalf("only %d of 20 cold runs met QoS", runs)
	}
	t.Logf("mean samples over %d seeds: warm %.1f, cold %.1f", runs, float64(warmSum)/float64(runs), float64(coldSum)/float64(runs))
	if warmSum >= coldSum {
		t.Errorf("warm runs used %d samples in total, cold %d — no bootstrap saving", warmSum, coldSum)
	}
}

// TestRunWarmEmptySeedsFallsBackToCold ensures RunWarm with no seeds
// behaves exactly like Run.
func TestRunWarmEmptySeedsFallsBackToCold(t *testing.T) {
	m := server.New(resource.Default(), server.DefaultSpec(), 11)
	mustAddLC(t, m, "memcached", 0.2)
	c := New(m, Options{BO: bo.Options{Seed: 11, MaxIterations: 6}})
	a, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RunWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Best.Equal(b.Best) || a.SamplesUsed != b.SamplesUsed {
		t.Errorf("RunWarm(nil) diverged from Run: %v/%d vs %v/%d",
			a.Best, a.SamplesUsed, b.Best, b.SamplesUsed)
	}
}
