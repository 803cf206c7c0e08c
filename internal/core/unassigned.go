package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metricspace"
	"repro/internal/par"
	"repro/obs"
)

// LocalSearchOptions configures SolveUnassignedLSCompiled.
type LocalSearchOptions struct {
	// MaxIter bounds the swap rounds (default 100).
	MaxIter int
	// Parallelism gates the worker-pool evaluation of the candidate-swap
	// neighborhood, with the same convention and bit-identical guarantee as
	// Options.Parallelism: every candidate's exact cost is computed exactly
	// as in the sequential scan, and the winning swap is selected by the
	// same deterministic left-to-right rule over the computed costs.
	Parallelism int
	// DisablePrune makes the scan evaluate every candidate instead of
	// skipping those its two certificates — the t*·G∞ lower bound and the
	// expected excess over t* — show cannot beat the incumbent.
	// Trajectories are bit-identical either way; the unpruned scan exists
	// as the reference the trajectory-equality tests, harness R4 and `make
	// bench-index` measure pruning against.
	DisablePrune bool
}

// Workers normalizes Parallelism to a worker count; see Options.Workers.
func (o LocalSearchOptions) Workers() int {
	return Options{Parallelism: o.Parallelism}.Workers()
}

// SolveUnassignedLSCompiled optimizes the paper's UNASSIGNED objective
//
//	Ecost(C) = E[max_i min_j d(X_i, c_j)]
//
// over centers drawn from the compiled instance's candidate set
// (CandidatesOrLocations()), by single-swap local search on the exact cost
// evaluator: start from the ED-surrogate pipeline's centers snapped to
// their nearest candidates, then repeatedly apply the best improving
// (center-out, candidate-in) swap until none improves by more than a
// relative 1e-9 or MaxIter rounds pass.
//
// The paper defines this version but provides no algorithm for it (it cites
// the Huang–Li PTAS); this is the practical heuristic the exact O(N)
// evaluator makes affordable: each candidate swap is one exact evaluation,
// never a Monte-Carlo estimate. The result is a local optimum with respect
// to single swaps; on brute-forceable instances the tests compare it
// against the global optimum.
//
// Repeated calls on one Compiled reuse its memoized 1-center surrogates
// (the seeds) and its layout; candidate distances are computed on demand,
// so a solve allocates O(N + n) scan state and no distance table. Unless
// DisablePrune, the scan skips every candidate its certificates show
// cannot beat the incumbent — the trajectory is bit-identical to the
// unpruned scan (see swapDescent) while typically evaluating a small
// fraction of the neighborhood. The neighborhood scan checks ctx between
// chunks and aborts with ctx.Err(); Parallelism > 1 fans the scan out over
// a worker pool with bit-identical results.
func SolveUnassignedLSCompiled[P any](ctx context.Context, c *Compiled[P], k int, opts LocalSearchOptions) ([]P, float64, error) {
	chosen, cost, err := solveUnassignedLS(ctx, c, k, opts)
	if err != nil {
		return nil, 0, err
	}
	return selectCandidates(c.CandidatesOrLocations(), chosen), cost, nil
}

// selectCandidates materializes candidate indices as points.
func selectCandidates[P any](candidates []P, idx []int) []P {
	out := make([]P, len(idx))
	for i, c := range idx {
		out[i] = candidates[c]
	}
	return out
}

// descentState is the scan state shared by every descent of one solve: the
// evaluator, the pooled scan buffers, and whether the certificates prune.
// Both seed descents reuse it.
type descentState[P any] struct {
	workers int
	ev      *SwapEvaluator[P]
	st      *scanState
	prune   bool // SetThreshold arms both certificates (not DisablePrune)
}

// pruneStats aggregates one descent's scan accounting: candidates scanned
// (not currently centers), candidates skipped by the t*·G∞ bound, those
// skipped by the expected-excess certificate, and bound failures (neither
// certified the candidate, which was evaluated exactly), so
// pruned + excess + boundFail = scanned.
type pruneStats struct {
	scanned, pruned, excess, boundFail int
}

// solveUnassignedLS is the engine behind SolveUnassignedLSCompiled: build
// the shared descent state, run the two seed descents and return the
// winner's candidate indices.
func solveUnassignedLS[P any](ctx context.Context, c *Compiled[P], k int, opts LocalSearchOptions) ([]int, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c == nil {
		return nil, 0, fmt.Errorf("core: nil compiled instance")
	}
	candidates := c.CandidatesOrLocations()
	if k <= 0 {
		return nil, 0, fmt.Errorf("core: k = %d", k)
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}

	// Multi-start: single-swap local optima can be poor from one seed, so
	// descend from two structurally different ones and keep the better —
	// (a) 1-center surrogates snapped to candidates, (b) farthest-first
	// directly over the candidate set. The surrogates come from the
	// instance's memoized cache.
	surr, err := c.Surrogates(ctx, SurrogateOneCenter, candidates, opts.Workers())
	if err != nil {
		return nil, 0, err
	}
	ds := &descentState[P]{workers: opts.Workers(), prune: !opts.DisablePrune}
	if ds.ev, err = newSwapEvaluator(c); err != nil {
		return nil, 0, err
	}
	ds.st = getScanState(ds.workers)
	defer scanPool.Put(ds.st)
	space := c.Space()
	ds.st.costs = resize(ds.st.costs, len(candidates))
	seeds := [][]int{
		greedySeed(space, surr, candidates, k),
		farthestFirstSeed(space, candidates, k, ds.st.costs),
	}

	// A later seed wins only by the swap rule's relative 1e-9, so last-bit
	// noise never chooses between equal-cost local optima.
	var bestChosen []int
	var bestCost float64
	for _, seed := range seeds {
		chosen, cost, err := swapDescent(ctx, len(candidates), seed, maxIter, ds)
		if err != nil {
			return nil, 0, err
		}
		if bestChosen == nil || cost < bestCost*(1-1e-9) {
			bestChosen, bestCost = chosen, cost
		}
	}
	return bestChosen, bestCost, nil
}

// swapDescent runs best-improvement single-swap local search on the exact
// unassigned cost over m candidates from the given seed. Each neighborhood
// scan evaluates the candidates on the worker pool, then applies the
// deterministic left-to-right selection rule over the computed costs, so
// any worker count yields the sequential trajectory.
//
// The scan runs on the incremental path: one PrepareBase per position,
// then an allocation-free EvalSwap per candidate. With pruning on (the
// default) each position arms SetThreshold with cost₀, the current
// solution's cost at scan entry, and EvalSwap skips every candidate one of
// the two certificates bounds at or above cost₀. That pruning is provably
// safe: the selection rule only accepts costs[c] < best·(1−1e-9) with
// best ≤ cost₀, and a skipped candidate's exact cost is ≥ cost₀ up to
// ~1e-12 roundoff — three orders of magnitude inside the 1e-9 acceptance
// slack — so it could never have been selected. Skipped candidates are
// marked +Inf, leaving the selection rule untouched; trajectories are
// therefore bit-identical to the unpruned scan, independent of worker
// count, pinned by tests.
//
// Instrumentation: each completed swap round reports an "ls.iter" span —
// swaps evaluated, improvements taken, and the round-end E-cost in
// micro-units, i.e. the cost trajectory — and the whole descent reports one
// "ls.descent" span with the totals, plus one "ls.prune" span (candidates
// scanned, pruned by t*·G∞, pruned by excess, bound failures) when pruning
// is on. With no tracer on ctx every span is inert (zero allocations, no
// clock reads); the per-candidate inner loop is never instrumented at all.
func swapDescent[P any](ctx context.Context, m int, seed []int, maxIter int, ds *descentState[P]) ([]int, float64, error) {
	workers := ds.workers
	if workers < 1 {
		workers = 1
	}
	tracer := obs.FromContext(ctx)
	dsp := obs.StartSpan(tracer, "ls.descent")
	chosen := append([]int(nil), seed...)
	st := ds.st
	st.inSet, st.costs = resize(st.inSet, m), resize(st.costs, m)
	inSet, costs, base, scratches := st.inSet, st.costs, &st.base, st.scratches
	clear(inSet)
	for _, c := range chosen {
		inSet[c] = true
	}
	var stats pruneStats
	ev := ds.ev
	cost := ev.Cost(base, scratches[0], chosen)

	// scanPos fills costs[c] with the exact cost of replacing chosen[pos]
	// by c for every out-of-set c, and +Inf for candidates a certificate
	// skips; eval is its per-candidate step, made once per descent.
	eval := func(w, c int) {
		if !inSet[c] {
			costs[c] = ev.EvalSwap(base, scratches[w], c)
		}
	}
	scanPos := func(pos int) error {
		ev.PrepareBase(base, chosen, pos)
		if ds.prune {
			ev.SetThreshold(base, cost)
		}
		for _, s := range scratches {
			s.pruned, s.excess = 0, 0
		}
		return par.ForWorker(ctx, m, workers, eval)
	}

	// countScan folds one position's outcome into the descent's prune
	// accounting — serially, after the parallel scan, so the numbers are
	// deterministic for any worker count. Each tier counts its own skips
	// where it fires; every other scanned candidate, +Inf costs included,
	// was evaluated exactly.
	countScan := func() {
		if !ds.prune {
			return
		}
		scanned, pruned, excess := m-len(chosen), 0, 0
		for _, s := range scratches {
			pruned += s.pruned
			excess += s.excess
		}
		stats.scanned += scanned
		stats.pruned += pruned
		stats.excess += excess
		stats.boundFail += scanned - pruned - excess
	}

	iters, totalSwaps, totalTaken := 0, 0, 0
	for iter := 0; iter < maxIter; iter++ {
		isp := obs.StartSpan(tracer, "ls.iter")
		improved := false
		swaps, taken := 0, 0
		for pos := 0; pos < len(chosen); pos++ {
			old := chosen[pos]
			// Scan the swap neighborhood: exact cost of replacing
			// chosen[pos] by each out-of-set candidate.
			if err := scanPos(pos); err != nil {
				return nil, 0, err
			}
			countScan()
			swaps += m - len(chosen)
			bestC, bestCost := -1, cost
			for c, in := range inSet {
				if in {
					continue
				}
				if costs[c] < bestCost*(1-1e-9) {
					bestC, bestCost = c, costs[c]
				}
			}
			if bestC >= 0 {
				chosen[pos] = bestC
				inSet[old], inSet[bestC] = false, true
				cost = bestCost
				taken++
				improved = true
			}
		}
		iters++
		totalSwaps += swaps
		totalTaken += taken
		isp.Int("iter", iter)
		isp.Int("swaps", swaps)
		isp.Int("improvements", taken)
		isp.Micros("ecost", cost)
		isp.End()
		if !improved {
			break
		}
	}
	if ds.prune {
		psp := obs.StartSpan(tracer, "ls.prune")
		psp.Int("scanned", stats.scanned)
		psp.Int("pruned", stats.pruned)
		psp.Int("excess", stats.excess)
		psp.Int("bound_failures", stats.boundFail)
		psp.End()
	}
	dsp.Int("k", len(chosen))
	dsp.Int("iters", iters)
	dsp.Int("swaps", totalSwaps)
	dsp.Int("improvements", totalTaken)
	dsp.Micros("ecost", cost)
	dsp.End()
	return chosen, cost, nil
}

// farthestFirstSeed is Gonzalez over the candidate set itself; dist is
// its scratch, one float per candidate.
func farthestFirstSeed[P any](space metricspace.Space[P], candidates []P, k int, dist []float64) []int {
	chosen := []int{0}
	dist = dist[:len(candidates)]
	for i := range dist {
		dist[i] = space.Dist(candidates[i], candidates[0])
	}
	for len(chosen) < k {
		far, farD := -1, -1.0
		for i, d := range dist {
			if d > farD {
				far, farD = i, d
			}
		}
		if far < 0 || farD == 0 {
			break
		}
		chosen = append(chosen, far)
		for i := range dist {
			if d := space.Dist(candidates[i], candidates[far]); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return chosen
}

// greedySeed picks k candidate indices: each surrogate's nearest candidate,
// de-duplicated, topped up farthest-first.
func greedySeed[P any](space metricspace.Space[P], surr, candidates []P, k int) []int {
	snap := func(p P) int {
		best, bestD := 0, math.Inf(1)
		for c, cand := range candidates {
			if d := space.Dist(p, cand); d < bestD {
				best, bestD = c, d
			}
		}
		return best
	}
	seen := map[int]bool{}
	var chosen []int
	for _, s := range surr {
		if len(chosen) == k {
			break
		}
		c := snap(s)
		if !seen[c] {
			seen[c] = true
			chosen = append(chosen, c)
		}
	}
	// Top up farthest-first over candidates.
	for len(chosen) < k {
		far, farD := -1, -1.0
		for c := range candidates {
			if seen[c] {
				continue
			}
			d := math.Inf(1)
			for _, s := range chosen {
				if dd := space.Dist(candidates[c], candidates[s]); dd < d {
					d = dd
				}
			}
			if d > farD {
				far, farD = c, d
			}
		}
		if far < 0 {
			break // fewer distinct candidates than k
		}
		seen[far] = true
		chosen = append(chosen, far)
	}
	return chosen
}
