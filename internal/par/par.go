// Package par is the repo's one bounded worker pool. Every parallel
// path in the controller (GP hyperparameter grid, acquisition
// multi-starts, ORACLE sweep shards, the experiment registry) funnels
// through it, and all of them follow the same determinism rules
// (DESIGN.md §8):
//
//   - workers only write to index-addressed slots they own, never to
//     shared accumulators;
//   - every reduction over those slots happens after the pool drains,
//     sequentially, in index order;
//   - any randomness is drawn from per-shard RNGs seeded before the
//     pool starts (stats.RNG.Split), never from a shared stream.
//
// Under those rules the output is byte-identical whatever the worker
// count or goroutine schedule, so "go fast" and "stay reproducible"
// stop being a trade-off.
//
// Failures follow the same rule. A panicking index is recovered, the
// remaining indices still run, and once the pool has drained the
// lowest-index panic is re-raised on the caller as a *Panic — the same
// one whatever the worker count or schedule.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the value ForEach and Go re-panic with when an index
// panicked: the index, the value it panicked with, and the stack of
// the goroutine that ran it.
type Panic struct {
	Index int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("par: index %d panicked: %v\n\n%s", p.Index, p.Value, p.Stack)
}

// failure keeps the lowest-index panic seen by a pool.
type failure struct {
	mu    sync.Mutex
	first *Panic
}

// run calls fn(i), recording a panic instead of unwinding past the
// pool.
func (f *failure) run(fn func(int), i int) {
	defer func() {
		if v := recover(); v != nil {
			p := &Panic{Index: i, Value: v, Stack: debug.Stack()}
			f.mu.Lock()
			if f.first == nil || i < f.first.Index {
				f.first = p
			}
			f.mu.Unlock()
		}
	}()
	fn(i)
}

// raise re-panics the recorded panic, if any, on the caller.
func (f *failure) raise() {
	if f.first != nil {
		panic(f.first)
	}
}

// Count resolves a requested worker count: 0 (or negative) means
// runtime.NumCPU(), and the result is clamped to at least 1.
func Count(requested int) int {
	if requested > 0 {
		return requested
	}
	if n := runtime.NumCPU(); n > 1 {
		return n
	}
	return 1
}

// ForEach invokes fn(i) for every i in [0, n), fanning the indices out
// over min(workers, n) goroutines (workers ≤ 0 means NumCPU). Indices
// are handed out dynamically, so uneven work items still balance; fn
// must confine its writes to state owned by index i. With one worker
// (or one item) everything runs inline on the caller's goroutine. A
// panic in fn is re-raised as a *Panic after every index has run (see
// the package comment).
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Count(workers)
	if w > n {
		w = n
	}
	var f failure
	defer f.raise()
	if w == 1 {
		for i := 0; i < n; i++ {
			f.run(fn, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				f.run(fn, i)
			}
		}()
	}
	wg.Wait()
}

// Go runs fn(0) … fn(k−1) concurrently and waits for all of them. It
// is the static-sharding counterpart of ForEach for callers that keep
// per-shard state (caches, RNGs) keyed by the shard id. Shard 0 runs
// on the caller's goroutine, whose stack has already grown to the
// depth the shard needs, and every other shard gets a goroutine of its
// own. Panics are contained and re-raised as in ForEach.
func Go(k int, fn func(shard int)) {
	if k <= 0 {
		return
	}
	var f failure
	defer f.raise()
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for s := 1; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			f.run(fn, s)
		}(s)
	}
	f.run(fn, 0)
	wg.Wait()
}
