package core

import (
	"math"
	"math/rand"
	"testing"

	"clite/internal/server"
	"clite/internal/stats"
	"clite/internal/workload"
)

// ScoreScratch holds ScoreJobs' per-job-class buffers.
type ScoreScratch struct {
	lcRatios, bgPerf, lcPerf []float64
}

// ScoreJobs is the direct form of Eq. 3 the cached-term pipeline must
// reproduce: collect the clamped per-class values and take
// stats.GeoMean of them, with no logs cached anywhere.
func ScoreJobs(jobs []server.Job, p95 []float64, qosMet []bool, normPerf []float64, scratch *ScoreScratch) float64 {
	lcRatios := scratch.lcRatios[:0]
	bgPerf := scratch.bgPerf[:0]
	lcPerf := scratch.lcPerf[:0]
	allMet := true
	for i, job := range jobs {
		if job.IsLC() {
			ratio := 1.0
			if p95[i] > 0 {
				ratio = job.QoS / p95[i]
			}
			if ratio > 1 {
				ratio = 1
			}
			lcRatios = append(lcRatios, ratio)
			if !qosMet[i] {
				allMet = false
			}
			lcPerf = append(lcPerf, stats.Clamp(normPerf[i], 0, 1))
		} else {
			bgPerf = append(bgPerf, stats.Clamp(normPerf[i], 0, 1))
		}
	}
	scratch.lcRatios, scratch.bgPerf, scratch.lcPerf = lcRatios, bgPerf, lcPerf
	if !allMet {
		return 0.5 * stats.GeoMean(lcRatios)
	}
	perf := bgPerf
	if len(perf) == 0 {
		perf = lcPerf
	}
	if len(perf) == 0 {
		return 1.0
	}
	return 0.5 + 0.5*stats.GeoMean(perf)
}

// sumScore re-aggregates the terms by hand and closes through
// ScoreFromSums directly, the log-domain form bulk scorers keep.
func sumScore(jobs []server.Job, p95 []float64, qosMet []bool, normPerf []float64) float64 {
	var lcRatioSum, lcPerfSum, bgPerfSum float64
	var nLC, nBG int
	allMet := true
	for i, job := range jobs {
		t := MakeScoreTerm(job, p95[i], qosMet[i], normPerf[i])
		if t.LC {
			lcRatioSum += t.LogRatio
			lcPerfSum += t.LogPerf
			nLC++
			if !t.QoSMet {
				allMet = false
			}
		} else {
			bgPerfSum += t.LogPerf
			nBG++
		}
	}
	return ScoreFromSums(lcRatioSum, lcPerfSum, bgPerfSum, nLC, nBG, allMet)
}

func assertBitEqual(t *testing.T, name string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Errorf("%s = %v (bits %x), ScoreJobs = %v (bits %x): cached-term score must be bit-identical",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestScoreFromTermsMatchesScoreJobs pins the contract ScoreTerm's doc
// comment claims: aggregating cached per-job terms — through
// ScoreObservation (MakeScoreTerm + ScoreFromTerms) or their raw log
// sums — reproduces
// the direct GeoMean form bit for bit in every scoring mode. The
// ORACLE sweep's memoization is only sound under this equality.
func TestScoreFromTermsMatchesScoreJobs(t *testing.T) {
	mixed := scoreJobs()
	lcOnly := mixed[:2]
	bgOnly := mixed[2:]

	cases := []struct {
		name string
		jobs []server.Job
		p95  []float64
		norm []float64
	}{
		{"meeting, BG perf mode", mixed, []float64{0.002, 0.020, 0}, []float64{1, 1, 0.64}},
		{"one LC violating", mixed, []float64{0.008, 0.020, 0}, []float64{0.5, 1, 1}},
		{"both LC violating", mixed, []float64{0.040, 0.120, 0}, []float64{0.2, 0.1, 1}},
		{"LC only, meeting", lcOnly, []float64{0.002, 0.020}, []float64{0.9, 0.7}},
		{"LC only, violating", lcOnly, []float64{0.009, 0.020}, []float64{0.9, 0.7}},
		{"BG only", bgOnly, []float64{0}, []float64{0.8}},
		{"no jobs", nil, nil, nil},
		{"zero p95 (ratio defaults to 1)", mixed, []float64{0, 0, 0}, []float64{1, 1, 0.5}},
		{"normPerf outside [0,1] clamps", mixed, []float64{0.002, 0.020, 0}, []float64{1.7, -0.3, 2.5}},
		{"tiny perf hits the GeoMean floor", mixed, []float64{0.008, 0.020, 0}, []float64{1e-15, 1, 1e-14}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := fakeObs(tc.jobs, tc.p95, tc.norm)
			var scratch ScoreScratch
			want := ScoreJobs(tc.jobs, tc.p95, obs.QoSMet, tc.norm, &scratch)
			assertBitEqual(t, "ScoreObservation", want, ScoreObservation(tc.jobs, obs))
			assertBitEqual(t, "ScoreFromSums", want, sumScore(tc.jobs, tc.p95, obs.QoSMet, tc.norm))
		})
	}
}

// TestScoreFromTermsMatchesScoreJobsRandom sweeps randomized job mixes
// and measurements through the same equality, including degenerate
// values at a fixed rate: p95 and normPerf drawn from NaN, ±Inf, zero
// and negatives, and perf below the GeoMean floor. NaN scores compare
// by bits too, so both forms must propagate the same NaN.
func TestScoreFromTermsMatchesScoreJobsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lc := workload.MustByName("memcached")
	bg := workload.MustByName("swaptions")
	degenerate := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.003, -1}
	var scratch ScoreScratch
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(6)
		jobs := make([]server.Job, n)
		p95 := make([]float64, n)
		norm := make([]float64, n)
		qosMet := make([]bool, n)
		for i := range jobs {
			if rng.Intn(2) == 0 {
				jobs[i] = server.Job{Workload: lc, QoS: 0.004, MaxQPS: 1000, Load: 0.5}
				p95[i] = rng.Float64() * 0.01
				if rng.Intn(8) == 0 {
					p95[i] = degenerate[rng.Intn(len(degenerate))]
				}
				qosMet[i] = p95[i] <= jobs[i].QoS
			} else {
				jobs[i] = server.Job{Workload: bg, IsoPerf: 100}
				qosMet[i] = true
			}
			norm[i] = rng.Float64()*2.4 - 0.2 // deliberately strays outside [0,1]
			switch rng.Intn(10) {
			case 0:
				norm[i] = 1e-15 // below the GeoMean floor
			case 1:
				norm[i] = degenerate[rng.Intn(len(degenerate))]
			}
		}
		want := ScoreJobs(jobs, p95, qosMet, norm, &scratch)
		obs := server.Observation{P95: p95, QoSMet: qosMet, NormPerf: norm}
		assertBitEqual(t, "ScoreObservation", want, ScoreObservation(jobs, obs))
		assertBitEqual(t, "ScoreFromSums", want, sumScore(jobs, p95, qosMet, norm))
	}
}
