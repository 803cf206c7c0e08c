package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/emax"
	"repro/internal/par"
	"repro/obs"
)

// SwapEvaluator is the incremental exact evaluator for the unassigned
// objective Ecost(C) = E[max_i min_{c∈C} d(X_i, c)] over center sets drawn
// from a fixed candidate set.
//
// Construction reuses the compiled instance's flat atom layout (the N
// support atoms, zero-probability ones pruned at compile time) and caches,
// for every candidate c, the column of distances d(loc_f, c) over all
// atoms — the n×m table of per-point distance RVs — computed once, in
// parallel over candidates, and immutable afterwards: no later evaluation
// calls the metric.
//
// A neighborhood scan factors through PrepareBase, which fixes one scan
// position's base — each atom's min distance over the k−1 unchanged
// centers — in a caller-owned SwapBase. EvalSwap(c) then finds the split
// t*(c) of the emax sweep and runs one fused min(base, column c) pass into
// it (emax.Arena.ExpectedMaxMinFlat), reading column c only for the points
// the base does not settle; no allocations in steady state. Every
// realization's max is at least t*, so Ecost ≥ t*·G∞ for the total point
// mass G∞: SetThreshold turns that into a prune certificate.
//
// The evaluator is immutable and safe to share across goroutines and
// solves (Compiled.Evaluator memoizes one per instance); scan state lives
// in caller-owned values, one SwapBase per scan and one SwapScratch per
// worker. EvalSwap sweeps the same per-atom distances EcostUnassigned
// computes from scratch, so cached and from-scratch costs are
// bit-identical.
//
// Memory: 8·m·N bytes, one float64 per (candidate, atom) pair, e.g. ~64 MB
// for n = m = 1000, z = 8. LocalSearchOptions.DisableSwapCache
// (ukc.WithSwapCache(false)) falls back to the from-scratch scan when that
// is too much.
type SwapEvaluator[P any] struct {
	offsets []int32      // point i owns atoms offsets[i]:offsets[i+1]
	lay     *emax.Layout // the atoms' masses and owners, for the sweep
	gInf    float64      // G∞ = Π_i min(1, mass_i), the mass the sweep reaches
	cols    [][]float64
}

// SwapBase is the per-scan-position state of a neighborhood scan, written
// by PrepareBase and SetThreshold and read by EvalSwap. It must not be
// written concurrently with reads; a scan prepares the base once, then fans
// EvalSwap out over candidates.
type SwapBase struct {
	vals  []float64 // atom f -> min distance over the unchanged centers
	ptMin []float64 // point i -> baseMin_i, min of vals over its atoms
	ptMax []float64 // point i -> max of vals over its atoms
	order []int32   // points by descending ptMin
	theta float64   // candidates with t* ≥ theta are certified; +Inf = none
}

// SwapScratch is the per-worker mutable state of EvalSwap, its sweep arena;
// a neighborhood scan hands each worker slot its own.
type SwapScratch struct {
	arena emax.Arena
}

// newSwapEvaluatorCompiled builds the candidate columns over a compiled
// instance's flat atom arena — no re-validation, no re-flattening.
func newSwapEvaluatorCompiled[P any](ctx context.Context, c *Compiled[P], candidates []P, workers int) (*SwapEvaluator[P], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: SwapEvaluator needs candidates")
	}
	e := &SwapEvaluator[P]{
		offsets: c.offsets,
		lay:     emax.NewLayout(c.probs, c.offsets, c.ptIdx),
		cols:    make([][]float64, len(candidates)),
	}
	e.gInf = e.lay.Mass()
	// One allocation per column: a single m·N block, freed and rebuilt on
	// every eviction, measured a higher GC heap goal and peak RSS (DESIGN §4).
	err := par.For(ctx, len(candidates), workers, func(cd int) {
		col := make([]float64, c.NumAtoms())
		c.distsTo(col, 0, candidates[cd])
		e.cols[cd] = col
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NumAtoms returns N, the number of positive-probability support atoms —
// the per-candidate column length of the cache.
func (e *SwapEvaluator[P]) NumAtoms() int { return int(e.offsets[len(e.offsets)-1]) }

// Bytes returns the size of the distance table, 8·m·N bytes.
func (e *SwapEvaluator[P]) Bytes() int64 { return 8 * int64(len(e.cols)) * int64(e.NumAtoms()) }

// NewBase returns a fresh per-scan base sized for this evaluator.
func (e *SwapEvaluator[P]) NewBase() *SwapBase {
	n := len(e.offsets) - 1
	return &SwapBase{
		vals:  make([]float64, e.NumAtoms()),
		ptMin: make([]float64, n),
		ptMax: make([]float64, n),
		order: make([]int32, n),
		theta: math.Inf(1),
	}
}

// NewScratch returns a fresh per-worker scratch.
func (e *SwapEvaluator[P]) NewScratch() *SwapScratch { return &SwapScratch{} }

// PrepareBase fixes the scan position: it computes every atom's min
// distance over chosen[j] for j ≠ pos (+Inf when k = 1) and each point's
// minimum and maximum of those into the caller-owned base, orders the
// points by that minimum, descending, and clears the prune threshold.
// Cost: O(N·(k−1)) plus an O(n log n) sort, amortized over the whole
// candidate scan; allocation-free.
func (e *SwapEvaluator[P]) PrepareBase(b *SwapBase, chosen []int, pos int) {
	bv := b.vals
	for f := range bv {
		bv[f] = math.Inf(1)
	}
	for j, c := range chosen {
		if j == pos {
			continue
		}
		for f, v := range e.cols[c] {
			if v < bv[f] {
				bv[f] = v
			}
		}
	}
	lo := e.offsets[0]
	for i, hi := range e.offsets[1:] {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range bv[lo:hi] {
			mn, mx = min(mn, v), max(mx, v)
		}
		b.ptMin[i], b.ptMax[i], b.order[i] = mn, mx, int32(i)
		lo = hi
	}
	slices.SortFunc(b.order, func(x, y int32) int { return cmp.Compare(b.ptMin[y], b.ptMin[x]) })
	b.theta = math.Inf(1)
}

// SetThreshold arms the prepared base's prune certificate for an incumbent
// cost cost₀: until the next PrepareBase, EvalSwap returns +Inf for every
// candidate whose t* reaches θ = cost₀/G∞, whose cost is then at least
// t*·G∞ ≥ cost₀ up to roundoff far below a relative 1e-12.
func (e *SwapEvaluator[P]) SetThreshold(b *SwapBase, cost0 float64) {
	b.theta = cost0 / e.gInf
}

// tStar returns t* = max_i min(baseMin_i, min_f col_f) over point i's
// atoms f, visiting points in descending baseMin order: once baseMin_i is
// at most the running max no later point can raise it, and a point's atoms
// are read only until one is at most the running max. It returns early,
// with a partial max ≥ b.theta, as soon as the threshold certifies col.
func (e *SwapEvaluator[P]) tStar(b *SwapBase, col []float64) float64 {
	t := math.Inf(-1)
	for _, i := range b.order {
		m := b.ptMin[i]
		if m <= t {
			break
		}
		for _, v := range col[e.offsets[i]:e.offsets[i+1]] {
			if v < m {
				if m = v; m <= t {
					break
				}
			}
		}
		if m > t {
			if t = m; t >= b.theta {
				break
			}
		}
	}
	return t
}

// EvalSwap returns the exact unassigned E-cost of chosen with chosen[pos]
// replaced by candidates[c], for the (chosen, pos) of the last PrepareBase
// on b — bit-identical to Compiled.EcostUnassigned of that center set — or
// +Inf when SetThreshold's certificate covers c. Allocation-free in steady
// state; safe to call concurrently given distinct scratches.
func (e *SwapEvaluator[P]) EvalSwap(b *SwapBase, s *SwapScratch, c int) float64 {
	col := e.cols[c]
	t := e.tStar(b, col)
	if t >= b.theta {
		return math.Inf(1)
	}
	return s.arena.ExpectedMaxMinFlat(e.lay, b.vals, col, b.ptMax, t)
}

// Cost returns the exact unassigned E-cost of the chosen candidate set
// itself, through the same cached columns. It overwrites the caller's base
// (base = chosen minus its first element, candidate = that element), so any
// previously prepared base must be re-prepared afterwards.
func (e *SwapEvaluator[P]) Cost(b *SwapBase, s *SwapScratch, chosen []int) float64 {
	if len(chosen) == 0 {
		return 0
	}
	e.PrepareBase(b, chosen, 0)
	return e.EvalSwap(b, s, chosen[0])
}

// EcostSweepCompiled evaluates the full single-swap neighborhood of a
// center set on the exact unassigned objective of a compiled instance:
// out[pos][c] is the E-cost of chosen with chosen[pos] replaced by
// candidate c (indices into CandidatesOrLocations()). out[pos][chosen[pos]]
// is the cost of the chosen set itself, and a column already in the set
// yields the cost of the correspondingly shrunk set (duplicate centers
// don't change a min). The instance's memoized evaluator (one O(m·N)
// metric-call build per instance LIFETIME, not per sweep) serves all k·m
// entries; the per-position scans fan out over `workers` goroutines with
// bit-identical results and honor ctx. disableCache skips the 8·m·N-byte
// distance-RV table and evaluates every entry from scratch (the memory
// escape hatch, bit-identical to the cached values) without touching the
// instance's cache.
func EcostSweepCompiled[P any](ctx context.Context, c *Compiled[P], chosen []int, workers int, disableCache bool) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	candidates := c.CandidatesOrLocations()
	if len(chosen) == 0 {
		return nil, fmt.Errorf("core: EcostSweep with no centers")
	}
	for _, ch := range chosen {
		if ch < 0 || ch >= len(candidates) {
			return nil, fmt.Errorf("core: EcostSweep center index %d out of range [0,%d)", ch, len(candidates))
		}
	}
	if workers < 1 {
		workers = 1
	}
	sp := obs.StartSpan(obs.FromContext(ctx), "sweep")
	sp.Int("k", len(chosen))
	sp.Int("candidates", len(candidates))
	if disableCache {
		scr := c.newFlatScratches(len(chosen), workers)
		out, err := ecostSweepFlatRows(ctx, c, candidates, scr, chosen, workers)
		if err != nil {
			return nil, err
		}
		sp.End()
		return out, nil
	}
	ev, err := c.Evaluator(ctx, workers)
	if err != nil {
		return nil, err
	}
	base := ev.NewBase()
	scratches := make([]*SwapScratch, workers)
	for w := range scratches {
		scratches[w] = ev.NewScratch()
	}
	out, err := ecostSweepRows(ctx, ev, base, scratches, chosen, workers)
	if err != nil {
		return nil, err
	}
	sp.End()
	return out, nil
}

// ecostSweepRows fills the k×m sweep matrix of EcostSweepCompiled on
// caller-owned scan state, so the sweep itself allocates only its result
// rows.
func ecostSweepRows[P any](ctx context.Context, ev *SwapEvaluator[P], base *SwapBase, scratches []*SwapScratch, chosen []int, workers int) ([][]float64, error) {
	m := len(ev.cols)
	out := make([][]float64, len(chosen))
	for pos := range chosen {
		ev.PrepareBase(base, chosen, pos)
		row := make([]float64, m)
		if err := par.ForWorker(ctx, m, workers, func(w, cd int) {
			row[cd] = ev.EvalSwap(base, scratches[w], cd)
		}); err != nil {
			return nil, err
		}
		out[pos] = row
	}
	return out, nil
}

// ecostSweepFlatRows is the sweep without the distance-RV table: every
// (position, candidate) entry is a from-scratch exact evaluation on the
// caller's per-worker scratches (center buffer, flat distance values, sweep
// arena).
func ecostSweepFlatRows[P any](ctx context.Context, c *Compiled[P], candidates []P, scr []*flatScratch[P], chosen []int, workers int) ([][]float64, error) {
	base := make([]P, len(chosen))
	for i, ch := range chosen {
		base[i] = candidates[ch]
	}
	out := make([][]float64, len(chosen))
	for pos := range chosen {
		row := make([]float64, len(candidates))
		if err := par.ForWorker(ctx, len(candidates), workers, func(w, cd int) {
			s := scr[w]
			cent := s.centers[:len(chosen)]
			copy(cent, base)
			cent[pos] = candidates[cd]
			row[cd] = c.ecostUnassignedFlat(cent, s.vals, &s.arena)
		}); err != nil {
			return nil, err
		}
		out[pos] = row
	}
	return out, nil
}
