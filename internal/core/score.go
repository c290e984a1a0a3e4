package core

import (
	"math"

	"clite/internal/server"
)

// ScoreTerm is one job's precomputed contribution to the Eq. 3 score:
// the floored logarithms GeoMean would take of the job's clamped
// QoS ratio and normalized performance, plus the class and QoS bits
// the aggregation branches on. Because the geometric mean is a sum of
// logs, a scorer that caches per-job measurements (the ORACLE sweep)
// can also cache these terms and aggregate a whole configuration with
// a handful of additions and one Exp instead of re-taking every log.
// ScoreFromTerms is bit-identical to taking stats.GeoMean of the
// clamped per-class values directly (the log values, their summation
// order, and the final Exp are the exact operations GeoMean performs);
// score_test.go keeps that direct form as the reference.
type ScoreTerm struct {
	LogRatio float64 // LC only: log of min(1, QoS/p95), floored at 1e-12
	LogPerf  float64 // log of clamp(normPerf, 0, 1), floored at 1e-12
	LC       bool
	QoSMet   bool
}

// geoMeanFloor mirrors the floor stats.GeoMean applies before Log.
const geoMeanFloor = 1e-12

func flooredLog(x float64) float64 {
	if x < geoMeanFloor {
		x = geoMeanFloor
	}
	return math.Log(x)
}

// MakeScoreTerm precomputes one job's score contribution from its
// measurement: the clamped QoS ratio (LC jobs) and normalized
// performance, each floored and logged as GeoMean would.
func MakeScoreTerm(job server.Job, p95 float64, qosMet bool, normPerf float64) ScoreTerm {
	perf := normPerf
	if perf < 0 {
		perf = 0
	}
	if perf > 1 {
		perf = 1
	}
	t := ScoreTerm{LogPerf: flooredLog(perf), QoSMet: qosMet}
	if job.IsLC() {
		t.LC = true
		ratio := 1.0
		if p95 > 0 {
			ratio = job.QoS / p95
		}
		if ratio > 1 {
			ratio = 1
		}
		t.LogRatio = flooredLog(ratio)
	}
	return t
}

// ScoreFromTerms aggregates precomputed per-job terms into the Eq. 3
// score (core.ScoreObservation is this over MakeScoreTerm). The
// per-class log sums accumulate in job order, as GeoMean would over
// the per-class values, and the final Exp(sum/n) is GeoMean's closing
// operation.
func ScoreFromTerms(terms []ScoreTerm) float64 {
	var lcRatioSum, lcPerfSum, bgPerfSum float64
	var nLC, nBG int
	allMet := true
	for _, t := range terms {
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

// ScoreFromSums closes the Eq. 3 score over already-accumulated
// per-class log sums — the last step of ScoreFromTerms, exposed so a
// bulk scorer can keep whole configurations in the log domain (sums
// are monotone in the score within a QoS class, so candidates that
// don't raise the relevant sum can be skipped without ever calling
// Exp) and still produce the bit-exact ScoreFromTerms value when one
// is needed.
func ScoreFromSums(lcRatioSum, lcPerfSum, bgPerfSum float64, nLC, nBG int, allMet bool) float64 {
	if !allMet {
		if nLC == 0 {
			return 0 // GeoMean of an empty slice is 0
		}
		return 0.5 * math.Exp(lcRatioSum/float64(nLC))
	}
	switch {
	case nBG > 0:
		return 0.5 + 0.5*math.Exp(bgPerfSum/float64(nBG))
	case nLC > 0:
		return 0.5 + 0.5*math.Exp(lcPerfSum/float64(nLC))
	default:
		// All-BG mixes have no QoS gate; score is pure performance.
		return 1.0
	}
}
