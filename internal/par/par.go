// Package par provides the deterministic bounded-parallelism substrate the
// solve pipelines run on: index-space fan-out over a fixed worker count with
// cooperative context cancellation.
//
// Determinism contract: For runs fn(i) exactly once for every i in [0, n)
// unless the context is canceled first, and workers communicate only through
// disjoint index ranges. A caller that writes fn's result to out[i] therefore
// gets a slice that is bit-identical to the sequential loop
//
//	for i := 0; i < n; i++ { out[i] = f(i) }
//
// for any worker count — the property the solver's WithParallelism option
// documents and the test suite asserts.
package par

import (
	"context"
	"runtime"
	"sync"
)

// chunk is the number of consecutive indices a worker claims at a time.
// Coarse enough to amortize the atomic claim, fine enough to balance skewed
// per-index costs (e.g. uncertain points with very different support sizes).
const chunk = 16

// Workers normalizes a requested parallelism degree: 0 or negative means
// "one worker per logical CPU", anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) using at most `workers` goroutines
// (sequentially in the calling goroutine when workers ≤ 1) and returns
// ctx.Err() if the context is canceled before all indices complete. Partial
// work may have been performed on cancellation; callers must discard their
// output buffer when an error is returned.
//
// fn must not panic across indices it does not own; indices are distributed
// in contiguous chunks so writes to out[i] never contend.
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForWorker(ctx, n, workers, func(_, i int) { fn(i) })
}

// ForWorker is For with the worker slot exposed: fn(w, i) runs with
// w ∈ [0, min(workers, n)) identifying the goroutine that claimed index i,
// so callers can hand each worker its own scratch buffers (the incremental
// swap evaluator's per-worker sweep arenas) without synchronization. The
// slot is stable for the lifetime of one ForWorker call and never shared by
// two concurrent fn invocations; the sequential path always passes w = 0.
// The determinism contract is For's: which worker claims an index affects
// only the scratch it uses, never the result written for that index.
func ForWorker(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if i%chunk == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fn(0, i)
		}
		return ctx.Err()
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	claim := func() (lo, hi int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0, false
		}
		lo = next
		hi = lo + chunk
		if hi > n {
			hi = n
		}
		next = hi
		return lo, hi, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				lo, hi, ok := claim()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// Map fills out[i] = f(i) for i in [0, len(out)) with the given parallelism,
// honoring ctx. The out slice is returned for chaining; on cancellation it is
// partially filled and must be discarded.
func Map[T any](ctx context.Context, out []T, workers int, f func(i int) T) ([]T, error) {
	err := For(ctx, len(out), workers, func(i int) { out[i] = f(i) })
	return out, err
}
