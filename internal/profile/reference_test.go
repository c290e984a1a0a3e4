package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file keeps the string-keyed mix canonicalization the packed
// keys replaced. It is the equivalence reference: packed keys must be
// equal exactly when these keys are, and LookupNear must pick the
// donor this file's distance rule picks.

// Job is one job of a mix as tests describe it: a workload name plus
// the offered load (0 for background jobs).
type Job struct {
	Workload string
	Load     float64
}

// mixOf packs a job list into its canonical Mix.
func mixOf(jobs []Job) Mix {
	var m Mix
	for _, j := range jobs {
		m = m.Insert(Pack(j.Workload, j.Load))
	}
	return m
}

// keyOf is the Entry.Key of a job list.
func keyOf(jobs []Job) string { return string(mixOf(jobs)) }

// refQuantize rounds a load to the nearest LoadQuantum bucket.
func refQuantize(load float64) float64 {
	return math.Round(load/LoadQuantum) * LoadQuantum
}

// refCanonical returns the mix with loads quantized, sorted by
// workload name then load.
func refCanonical(jobs []Job) []Job {
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = Job{Workload: j.Workload, Load: refQuantize(j.Load)}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Workload != out[b].Workload {
			return out[a].Workload < out[b].Workload
		}
		return out[a].Load < out[b].Load
	})
	return out
}

// refKey renders the string cache key of a mix, e.g.
// "img-dnn@0.20|memcached@0.40|swaptions".
func refKey(jobs []Job) string {
	var b strings.Builder
	for i, j := range refCanonical(jobs) {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(j.Workload)
		if j.Load > 0 {
			fmt.Fprintf(&b, "@%.2f", j.Load)
		}
	}
	return b.String()
}

// refSignature is the loads-erased form of refKey.
func refSignature(jobs []Job) string {
	var names []string
	for _, j := range refCanonical(jobs) {
		names = append(names, j.Workload)
	}
	return strings.Join(names, "|")
}

// nameOf inverts intern.
func nameOf(id ID) string {
	extra.mu.Lock()
	defer extra.mu.Unlock()
	for _, table := range []map[string]ID{registered, extra.ids} {
		for name, rid := range table {
			if rid == id {
				return name
			}
		}
	}
	panic(fmt.Sprintf("ID %d was never interned", id))
}

// decode unpacks an entry key into jobs at their quantized loads.
func decode(key string) []Job {
	m := Mix(key)
	jobs := make([]Job, m.Len())
	for i := range jobs {
		j := m.At(i)
		jobs[i] = Job{Workload: nameOf(j.Workload()), Load: float64(j.Quantum()) * LoadQuantum}
	}
	return jobs
}

// refLookupNear is LookupNear over string keys: it scans the cache's
// journal in Store order (the per-signature index order) with the
// float distance rule on name-sorted canonical mixes.
func refLookupNear(c *Cache, jobs []Job, tol float64) (*Entry, bool) {
	canon := refCanonical(jobs)
	key, sig := refKey(jobs), refSignature(jobs)
	entries, _ := c.EntriesSince(0)
	var best *Entry
	bestDist := math.Inf(1)
	for _, e := range entries {
		ej := refCanonical(decode(e.Key))
		if refSignature(ej) != sig || refKey(ej) == key || !e.Feasible {
			continue
		}
		total, ok := 0.0, true
		for i := range canon {
			d := math.Abs(ej[i].Load - canon[i].Load)
			if d > tol+1e-9 {
				ok = false
				break
			}
			total += d
		}
		if ok && total < bestDist-1e-12 {
			best, bestDist = e, total
		}
	}
	return best, best != nil
}
