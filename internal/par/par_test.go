package par

import (
	"fmt"
	"runtime"
	"strings"
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

// catch runs f and returns the *Panic it re-raised, or nil.
func catch(t *testing.T, f func()) (p *Panic) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if p, ok = v.(*Panic); !ok {
				t.Fatalf("re-panicked with %T (%v), want *Panic", v, v)
			}
		}
	}()
	f()
	return nil
}

// TestForEachPanicLowestIndex panics at several indices and checks,
// at every worker count, that the pool drains (every other index
// still runs) and the caller sees the lowest-index panic with its
// value and the panicking worker's stack.
func TestForEachPanicLowestIndex(t *testing.T) {
	const n = 100
	panics := map[int]bool{17: true, 42: true, 90: true}
	for _, workers := range []int{1, 2, 8} {
		ran := make([]bool, n)
		p := catch(t, func() {
			ForEach(workers, n, func(i int) {
				if panics[i] {
					panic(fmt.Sprintf("boom %d", i))
				}
				ran[i] = true
			})
		})
		if p == nil {
			t.Fatalf("workers=%d: ForEach swallowed the panic", workers)
		}
		if p.Index != 17 || p.Value != "boom 17" {
			t.Fatalf("workers=%d: got index %d value %v, want the lowest (17)", workers, p.Index, p.Value)
		}
		if !strings.Contains(string(p.Stack), "TestForEachPanicLowestIndex") {
			t.Fatalf("workers=%d: stack does not show the panicking callback:\n%s", workers, p.Stack)
		}
		for i := range ran {
			if ran[i] == panics[i] {
				t.Fatalf("workers=%d: index %d ran=%v; the pool must drain past panics", workers, i, ran[i])
			}
		}
	}
}

// TestGoPanicLowestShard is the Go counterpart, including the inline
// single-shard path.
func TestGoPanicLowestShard(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		var done atomic.Int64
		p := catch(t, func() {
			Go(shards, func(s int) {
				if s == shards-1 || s == 0 {
					panic(fmt.Sprintf("shard %d", s))
				}
				done.Add(1)
			})
		})
		if p == nil || p.Index != 0 || p.Value != "shard 0" {
			t.Fatalf("shards=%d: got %+v, want shard 0's panic", shards, p)
		}
		if want := int64(max(shards-2, 0)); done.Load() != want {
			t.Fatalf("shards=%d: %d shards finished, want %d", shards, done.Load(), want)
		}
	}
}

// TestNestedPanicCarriesBothIndices panics inside a ForEach nested in
// Go shards: the outer *Panic names the lowest failing shard and wraps
// the inner *Panic naming that shard's lowest failing index.
func TestNestedPanicCarriesBothIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := catch(t, func() {
			Go(4, func(s int) {
				ForEach(workers, 20, func(i int) {
					if (s == 2 && i >= 5) || (s == 3 && i == 1) {
						panic(s*100 + i)
					}
				})
			})
		})
		if p == nil || p.Index != 2 {
			t.Fatalf("workers=%d: outer panic %+v, want shard 2", workers, p)
		}
		inner, ok := p.Value.(*Panic)
		if !ok || inner.Index != 5 || inner.Value != 205 {
			t.Fatalf("workers=%d: inner value %#v, want *Panic at index 5 with 205", workers, p.Value)
		}
	}
}
