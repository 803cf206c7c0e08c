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
	// DisableSwapCache turns off the incremental SwapEvaluator (the
	// n×m distance-RV cache plus per-position base precomputation) and
	// falls back to from-scratch evaluation of every candidate swap — the
	// cross-check oracle. The cache costs 8 bytes per (candidate, support
	// atom) pair and, on a compiled instance, is memoized for the instance
	// lifetime; disable it when m·Σz_i is too large to hold in memory.
	// Costs are bit-identical to the cached path, and so are the swap
	// trajectories (pinned by tests). Disabling the cache
	// also disables pruning and the candidate index (the bound reads the
	// cached columns), so the oracle path stays pure.
	DisableSwapCache bool
	// CandidateIndex selects how the neighborhood scan prunes: CandIndexPrune
	// (the default, reached through CandIndexDefault) keeps the scan exact
	// but skips candidates whose t*·G∞ lower bound certifies they cannot
	// beat the incumbent — bit-identical trajectories at a fraction of the
	// evaluations; CandIndexApprox also restricts the scan to the
	// neighborhood graph of the current centers (explicitly approximate);
	// CandIndexOff scans everything (the oracle).
	CandidateIndex CandidateIndexMode
	// GraphDegree sets the per-node degree of the approximate neighborhood
	// graph (0 = DefaultGraphDegree; only the default is memoized).
	GraphDegree int
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
// (the seeds) and — unless DisableSwapCache — its memoized distance-RV
// evaluator, so only the descent itself is paid per solve. By default
// (CandidateIndex unset, i.e. CandIndexPrune) the scan additionally skips
// every candidate whose t*·G∞ lower bound certifies it cannot beat the
// incumbent — the trajectory is bit-identical to the unpruned scan (see
// swapDescent) while typically evaluating a small fraction of the
// neighborhood. The neighborhood scan checks ctx between chunks and aborts
// with ctx.Err(); Parallelism > 1 fans the scan out over a worker pool with
// bit-identical results.
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
// evaluator with its per-scan base and per-worker scratches, whether the
// bound prunes, approximate mode's pivots and graph, and — on the oracle
// path — the per-worker from-scratch scratches. Allocated once per solve;
// both seed descents reuse it.
type descentState[P any] struct {
	workers int

	// Cached path (ev != nil).
	ev        *SwapEvaluator[P]
	base      *SwapBase
	scratches []*SwapScratch
	prune     bool // the t*·G∞ bound skips certified candidates (not CandIndexOff)

	// CandIndexApprox only (nil otherwise).
	ix   *CandIndex
	gr   *CandGraph
	mark []bool // approx scan set, rebuilt per position

	// Oracle path (ev == nil).
	flat []*flatScratch[P]
}

// pruneStats aggregates one descent's scan accounting: candidates scanned
// (in the scan set and not currently centers), candidates pruned by the
// bound without evaluation, and bound failures (the bound did not certify
// the candidate, which was evaluated exactly), so pruned + boundFail =
// scanned.
type pruneStats struct {
	scanned, pruned, boundFail int
}

// solveUnassignedLS is the engine behind SolveUnassignedLSCompiled: resolve
// the index mode, build the shared descent state, run the two seed descents
// and return the winner's candidate indices.
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
	space := c.Space()
	seeds := [][]int{
		greedySeed(space, surr, candidates, k),
		farthestFirstSeed(space, candidates, k),
	}

	// Pruning lives on the cached evaluator (the bound reads its columns),
	// so DisableSwapCache forces the pure oracle: no cache, no pruning, no
	// index, from-scratch evaluations only.
	mode := opts.CandidateIndex.resolve()
	ds := &descentState[P]{workers: opts.Workers()}
	if opts.DisableSwapCache {
		ds.flat = c.newFlatScratches(k, ds.workers)
	} else {
		// The distance-RV cache depends only on (pts, candidates), so the
		// instance's memoized evaluator serves every seed's descent — and
		// every later solve of the same instance.
		ds.ev, err = c.Evaluator(ctx, ds.workers)
		if err != nil {
			return nil, 0, err
		}
		ds.base = ds.ev.NewBase()
		ds.scratches = make([]*SwapScratch, ds.workers)
		for w := range ds.scratches {
			ds.scratches[w] = ds.ev.NewScratch()
		}
		ds.prune = mode != CandIndexOff
		if mode == CandIndexApprox {
			ds.ix, err = c.CandIndex(ctx, 0, ds.workers)
			if err != nil {
				return nil, 0, err
			}
			ds.gr, err = c.CandGraph(ctx, opts.GraphDegree, ds.workers)
			if err != nil {
				return nil, 0, err
			}
			ds.mark = make([]bool, len(candidates))
		}
	}

	// A later seed wins only by the swap rule's relative 1e-9, so last-bit
	// noise never chooses between equal-cost local optima.
	var bestChosen []int
	var bestCost float64
	for _, seed := range seeds {
		chosen, cost, err := swapDescent(ctx, c, candidates, seed, maxIter, ds)
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
// unassigned cost from the given seed. Each neighborhood scan evaluates the
// scan set on the worker pool, then applies the deterministic left-to-right
// selection rule over the computed costs, so any worker count yields the
// sequential trajectory.
//
// With a non-nil evaluator the scan runs on the incremental path: one
// PrepareBase per position, then a zero-metric-call, allocation-free
// EvalSwap per candidate. With pruning on (CandIndexPrune, the default, and
// CandIndexApprox) each position arms SetThreshold with cost₀, the current
// solution's cost at scan entry, and EvalSwap skips every candidate whose
// t* reaches cost₀/G∞. That pruning is provably safe: the selection rule
// only accepts costs[c] < best·(1−1e-9) with best ≤ cost₀, and the bound
// guarantees the exact cost of a pruned candidate is ≥ cost₀ up to ~1e-12
// roundoff — three orders of magnitude inside the 1e-9 acceptance slack —
// so a pruned candidate could never have been selected. Pruned (and, in
// CandIndexApprox, out-of-neighborhood) candidates are marked +Inf,
// leaving the selection rule untouched; trajectories are therefore
// bit-identical to the unpruned scan, independent of worker count, pinned
// by tests. With ds.ev == nil it evaluates every swap from scratch on the
// compiled flat layout (the cross-check oracle), reusing per-worker
// center/value/arena scratch across the whole descent.
//
// Instrumentation: each completed swap round reports an "ls.iter" span —
// swaps evaluated, improvements taken, and the round-end E-cost in
// micro-units, i.e. the cost trajectory — and the whole descent reports one
// "ls.descent" span with the totals, plus one "ls.prune" span (candidates
// scanned, pruned, bound failures) when pruning is on. With no tracer on
// ctx every span is inert (zero allocations, no clock reads); the
// per-candidate inner loop is never instrumented at all.
func swapDescent[P any](ctx context.Context, cm *Compiled[P], candidates []P, seed []int, maxIter int, ds *descentState[P]) ([]int, float64, error) {
	workers := ds.workers
	if workers < 1 {
		workers = 1
	}
	tracer := obs.FromContext(ctx)
	dsp := obs.StartSpan(tracer, "ls.descent")
	chosen := append([]int(nil), seed...)
	inSet := make(map[int]bool, len(chosen))
	for _, c := range chosen {
		inSet[c] = true
	}
	costs := make([]float64, len(candidates))
	var stats pruneStats

	// scanPos fills costs[c] with the exact cost of replacing chosen[pos]
	// by c for every out-of-set c in the scan set, and +Inf for candidates
	// certified non-improving (prune) or outside the neighborhood (approx).
	var cost float64
	var scanPos func(pos int) error
	if ds.ev != nil {
		ev := ds.ev
		cost = ev.Cost(ds.base, ds.scratches[0], chosen)
		scanPos = func(pos int) error {
			ev.PrepareBase(ds.base, chosen, pos)
			if ds.prune {
				ev.SetThreshold(ds.base, cost)
			}
			if ds.gr != nil {
				// Approx scan set: neighborhoods of the current centers,
				// plus the pivots as global probes.
				for i := range ds.mark {
					ds.mark[i] = false
				}
				for _, ch := range chosen {
					for _, nb := range ds.gr.Neighbors(ch) {
						ds.mark[nb] = true
					}
				}
				for _, p := range ds.ix.Pivots() {
					ds.mark[p] = true
				}
			}
			return par.ForWorker(ctx, len(candidates), workers, func(w, c int) {
				if inSet[c] {
					return
				}
				if ds.gr != nil && !ds.mark[c] {
					costs[c] = math.Inf(1)
					return
				}
				costs[c] = ev.EvalSwap(ds.base, ds.scratches[w], c)
			})
		}
	} else {
		scr := ds.flat
		cent := scr[0].centers[:len(chosen)]
		for i, c := range chosen {
			cent[i] = candidates[c]
		}
		cost = cm.ecostUnassignedFlat(cent, scr[0].vals, &scr[0].arena)
		base := make([]P, len(chosen))
		scanPos = func(pos int) error {
			for i, c := range chosen {
				base[i] = candidates[c]
			}
			return par.ForWorker(ctx, len(candidates), workers, func(w, c int) {
				if inSet[c] {
					return
				}
				s := scr[w]
				cent := s.centers[:len(chosen)]
				copy(cent, base)
				cent[pos] = candidates[c]
				costs[c] = cm.ecostUnassignedFlat(cent, s.vals, &s.arena)
			})
		}
	}

	// countScan folds one position's outcome into the descent's prune
	// accounting — serially, after the parallel scan, so the numbers are
	// deterministic for any worker count.
	countScan := func() {
		if !ds.prune {
			return
		}
		for c := range candidates {
			if inSet[c] {
				continue
			}
			if ds.gr != nil && !ds.mark[c] {
				continue // outside the approx scan set: never considered
			}
			stats.scanned++
			if math.IsInf(costs[c], 1) {
				stats.pruned++
			} else {
				stats.boundFail++
			}
		}
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
			swaps += len(candidates) - len(chosen)
			bestC, bestCost := -1, cost
			for c := range candidates {
				if inSet[c] {
					continue
				}
				if costs[c] < bestCost*(1-1e-9) {
					bestC, bestCost = c, costs[c]
				}
			}
			if bestC >= 0 {
				chosen[pos] = bestC
				delete(inSet, old)
				inSet[bestC] = true
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

// farthestFirstSeed is Gonzalez over the candidate set itself.
func farthestFirstSeed[P any](space metricspace.Space[P], candidates []P, k int) []int {
	chosen := []int{0}
	dist := make([]float64, len(candidates))
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
