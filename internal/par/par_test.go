package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCount checks the worker-count resolution: non-positive requests
// mean NumCPU, positive ones pass through, and the result is never
// below one.
func TestCount(t *testing.T) {
	cpus := runtime.NumCPU()
	if cpus < 1 {
		cpus = 1
	}
	for _, tc := range []struct{ requested, want int }{
		{-3, cpus},
		{0, cpus},
		{1, 1},
		{2, 2},
		{64, 64},
	} {
		if got := Count(tc.requested); got != tc.want {
			t.Errorf("Count(%d) = %d, want %d", tc.requested, got, tc.want)
		}
	}
}

// squares fills out[i] = i*i through ForEach, the slot-owned write
// pattern every caller follows.
func squares(workers, n int) []int {
	out := make([]int, n)
	ForEach(workers, n, func(i int) { out[i] = i * i })
	return out
}

func TestForEachIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 1000
	want := squares(1, n)
	for i, v := range want {
		if v != i*i {
			t.Fatalf("sequential slot %d = %d", i, v)
		}
	}
	for _, workers := range []int{2, 8} {
		got := squares(workers, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 3, 8, 100} {
			hits := make([]int32, n)
			ForEach(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestGoIdenticalAcrossShardCounts(t *testing.T) {
	// Each shard sums its residue class of [0, n); the index-ordered
	// reduction afterwards must not depend on the shard count.
	const n = 997
	total := func(k int) int {
		partial := make([]int, k)
		Go(k, func(s int) {
			for i := s; i < n; i += k {
				partial[s] += i
			}
		})
		sum := 0
		for _, p := range partial {
			sum += p
		}
		return sum
	}
	want := n * (n - 1) / 2
	for _, k := range []int{1, 2, 8} {
		if got := total(k); got != want {
			t.Errorf("Go(%d): sum %d, want %d", k, got, want)
		}
	}
}

// TestSmallInputsRunInline checks the n = 0 and n = 1 fast paths: no
// callback for zero items, and a single item (or a single shard) runs
// on the caller's goroutine before the call returns. The unsynchronized
// writes below are data races unless the callback is inline, so the
// race detector enforces the claim under -race. The goroutine count
// may only fall inside the callback: a spawned worker would raise it,
// while a straggler from an earlier test exiting lowers it.
func TestSmallInputsRunInline(t *testing.T) {
	calls := 0
	ForEach(8, 0, func(int) { calls++ })
	Go(0, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("zero items invoked the callback %d times", calls)
	}

	before := runtime.NumGoroutine()
	var inside int
	ForEach(8, 1, func(i int) {
		inside = runtime.NumGoroutine()
		calls += i + 1
	})
	if calls != 1 || inside > before {
		t.Errorf("ForEach(8, 1): calls=%d, goroutines %d inside vs %d outside", calls, inside, before)
	}
	Go(1, func(s int) {
		inside = runtime.NumGoroutine()
		calls += s + 1
	})
	if calls != 2 || inside > before {
		t.Errorf("Go(1): calls=%d, goroutines %d inside vs %d outside", calls, inside, before)
	}
}

// TestNestedForEachInsideGo runs a ForEach inside every Go shard — the
// shape of the fleet path, where each shard's scheduler fans its
// screens out again — and checks the result matches the flat
// sequential loop.
func TestNestedForEachInsideGo(t *testing.T) {
	const shards, perShard = 4, 50
	want := make([]int, shards*perShard)
	for i := range want {
		want[i] = 3*i + 1
	}
	for _, workers := range []int{1, 2, 8} {
		got := make([]int, shards*perShard)
		Go(shards, func(s int) {
			ForEach(workers, perShard, func(i int) {
				idx := s*perShard + i
				got[idx] = 3*idx + 1
			})
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
