package policies

import (
	"math"
	"testing"

	"clite/internal/core"
	"clite/internal/resource"
	"clite/internal/server"
)

// naiveScorer scores configurations the straightforward way: every job
// measured directly (no memo, no table) and the Eq. 3 score computed
// by core.ScoreJobs.
func naiveScorer(t *testing.T, m *server.Machine) func(resource.Config) float64 {
	jobs := m.Jobs()
	p95 := make([]float64, len(jobs))
	qosMet := make([]bool, len(jobs))
	norm := make([]float64, len(jobs))
	var scratch core.ScoreScratch
	return func(cfg resource.Config) float64 {
		for j := range jobs {
			meas, err := m.MeasureJobIdeal(j, cfg.Jobs[j])
			if err != nil {
				t.Fatalf("MeasureJobIdeal(%d, %v): %v", j, cfg.Jobs[j], err)
			}
			p95[j], qosMet[j], norm[j] = meas.P95, meas.QoSMet, meas.NormPerf
		}
		return core.ScoreJobs(jobs, p95, qosMet, norm, &scratch)
	}
}

// naiveGrid walks the strided grid in enumeration order and returns
// its first maximum.
func naiveGrid(m *server.Machine, stride int, score func(resource.Config) float64) (resource.Config, float64) {
	var best resource.Config
	bestScore := math.Inf(-1)
	resource.ForEachConfig(m.Topology(), len(m.Jobs()), stride, func(cfg resource.Config) bool {
		if sc := score(cfg); sc > bestScore {
			best, bestScore = cfg.Clone(), sc
		}
		return true
	})
	return best, bestScore
}

// TestOracleMatchesNaiveSweep pins the Oracle's table-driven,
// block-sharded, log-domain sweep to the naive reference over small
// budgets: the grid winner and its score must match the first maximum
// of a plain ForEachConfig + MeasureJobIdeal + core.ScoreJobs walk bit
// for bit, and the refined Run result must match the same hill climb
// driven by the naive scorer.
func TestOracleMatchesNaiveSweep(t *testing.T) {
	for name, build := range map[string]func(*testing.T, int64) *server.Machine{
		"easy":  easyMix,
		"tight": tightMix,
	} {
		for _, budget := range []int{300, 1500} {
			for _, workers := range []int{1, 3} {
				o := Oracle{Budget: budget, Workers: workers}
				m := build(t, 5)
				topo, nJobs := m.Topology(), len(m.Jobs())
				stride := o.chooseStride(topo, nJobs)

				ref := build(t, 5)
				score := naiveScorer(t, ref)
				want, wantScore := naiveGrid(ref, stride, score)
				got, gotScore, _, err := o.sweepGrid(m, stride)
				if err != nil {
					t.Fatalf("%s/%d/%d: sweepGrid: %v", name, budget, workers, err)
				}
				if got.Key() != want.Key() || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
					t.Errorf("%s budget=%d workers=%d: grid winner %s (%v), naive %s (%v)",
						name, budget, workers, got.Key(), gotScore, want.Key(), wantScore)
				}

				for _, start := range []resource.Config{want, resource.EqualSplit(topo, nJobs)} {
					if cfg, sc := o.hillClimb(topo, nJobs, start, score); sc > wantScore {
						want, wantScore = cfg, sc
					}
				}
				res, err := o.Run(build(t, 5))
				if err != nil {
					t.Fatalf("%s/%d/%d: Run: %v", name, budget, workers, err)
				}
				if res.Best.Key() != want.Key() || math.Float64bits(res.BestScore) != math.Float64bits(wantScore) {
					t.Errorf("%s budget=%d workers=%d: Run best %s (%v), naive %s (%v)",
						name, budget, workers, res.Best.Key(), res.BestScore, want.Key(), wantScore)
				}
			}
		}
	}
}
