package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metricspace"
	"repro/internal/par"
	"repro/internal/uncertain"
	"repro/obs"
)

// SwapEvaluator is the incremental exact evaluator for the unassigned
// objective Ecost(C) = E[max_i min_{c∈C} d(X_i, c)] over center sets drawn
// from a fixed candidate set.
//
// Construction reuses the compiled instance's flat atom layout — the
// N = Σ_i |{j : p_ij > 0}| support atoms with zero-probability atoms already
// pruned at compile time — and caches, for every candidate c, the column of
// distances d(loc_f, candidate_c) over all atoms: the full n×m table of
// per-point distance RVs. The columns are computed once (parallelized over
// candidates) and are immutable afterwards, so every later evaluation makes
// zero metric calls.
//
// A neighborhood scan then factors through PrepareBase: for one scan
// position it precomputes each atom's min distance over the k−1 *unchanged*
// centers into a caller-owned SwapBase, after which EvalSwap(c) is one O(N)
// pass of min(base, column c) followed by the threshold-split emax sweep
// (emax.Arena.ExpectedMaxFlat), which orders only the few atoms above
// t* = max_i min D_i. Per-candidate cost drops from O(N·k) metric calls to
// that O(N) pass plus the sweep, with no allocations in steady state.
//
// The evaluator itself is immutable after construction and therefore safe
// to share across goroutines and across solves — Compiled.Evaluator
// memoizes one per instance. All scan-mutable state lives in caller-owned
// values: one SwapBase per neighborhood scan (PrepareBase overwrites it)
// and one SwapScratch per worker. EvalSwap hands ExpectedMaxFlat the same
// per-atom distances EcostUnassigned computes from scratch, so cached and
// from-scratch costs are bit-identical.
//
// Memory: the table holds one float64 distance per (candidate, atom) pair —
// 8·m·N bytes, e.g. ~64 MB for n = m = 1000, z = 8.
// LocalSearchOptions.DisableSwapCache (ukc.WithSwapCache(false)) falls
// back to the from-scratch scan when that is too much.
type SwapEvaluator[P any] struct {
	nPts  int       // number of uncertain points
	ptIdx []int32   // atom f -> index of the point it belongs to
	probs []float64 // atom f -> its (positive) probability mass
	cols  [][]float64
}

// SwapBase is the per-scan-position state of a neighborhood scan: every
// atom's min distance over the k−1 unchanged centers. PrepareBase
// overwrites it; EvalSwap reads it. One base must not be written
// (PrepareBase) concurrently with reads; a scan prepares the base once,
// then fans EvalSwap out over candidates.
type SwapBase struct {
	vals      []float64 // atom f -> min distance over the unchanged centers
	unchanged int       // number of unchanged centers; 0 when k = 1
}

// SwapScratch is the per-worker mutable state of EvalSwap: the swapped
// set's per-atom min distances and the sweep arena. One scratch must not be
// used by two goroutines concurrently; a neighborhood scan hands each
// worker slot its own via NewScratch.
type SwapScratch struct {
	ecostScratch
}

// NewSwapEvaluator builds the distance-RV cache for (pts, candidates):
// m candidate columns over the N positive-probability support atoms. The
// build compiles the point set (validating it once) and fans out over
// candidates on `workers` goroutines, honoring ctx. Callers holding a
// Compiled should use Compiled.Evaluator, which memoizes one evaluator per
// instance.
func NewSwapEvaluator[P any](ctx context.Context, space metricspace.Space[P], pts []uncertain.Point[P], candidates []P, workers int) (*SwapEvaluator[P], error) {
	if space == nil {
		return nil, fmt.Errorf("core: SwapEvaluator with nil space")
	}
	c, err := Compile(ctx, space, pts, candidates)
	if err != nil {
		return nil, err
	}
	return newSwapEvaluatorCompiled(ctx, c, candidates, workers)
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
		nPts:  c.NumPoints(),
		ptIdx: c.ptIdx,
		probs: c.probs,
		cols:  make([][]float64, len(candidates)),
	}
	locs, space := c.locs, c.space
	err := par.For(ctx, len(candidates), workers, func(cd int) {
		col := make([]float64, len(locs))
		for f, loc := range locs {
			col[f] = space.Dist(loc, candidates[cd])
		}
		e.cols[cd] = col
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NumAtoms returns N, the number of positive-probability support atoms —
// the per-candidate column length of the cache.
func (e *SwapEvaluator[P]) NumAtoms() int { return len(e.probs) }

// Bytes returns the size of the distance table, 8·m·N bytes.
func (e *SwapEvaluator[P]) Bytes() int64 { return 8 * int64(len(e.cols)) * int64(len(e.probs)) }

// NewBase returns a fresh per-scan base sized for this evaluator.
func (e *SwapEvaluator[P]) NewBase() *SwapBase {
	return &SwapBase{vals: make([]float64, len(e.probs))}
}

// NewScratch returns a fresh per-worker scratch sized for this evaluator.
func (e *SwapEvaluator[P]) NewScratch() *SwapScratch {
	return &SwapScratch{ecostScratch{vals: make([]float64, len(e.probs))}}
}

// PrepareBase fixes the scan position: it computes every atom's min
// distance over chosen[j] for j ≠ pos (+Inf when k = 1) into the
// caller-owned base — the shared read-only input of the EvalSwap calls that
// follow. Cost: O(N·(k−1)) mins, amortized over the whole candidate scan;
// allocation-free. PrepareBase must not run concurrently with EvalSwap on
// the same base.
func (e *SwapEvaluator[P]) PrepareBase(b *SwapBase, chosen []int, pos int) {
	bv := b.vals
	for f := range bv {
		bv[f] = math.Inf(1)
	}
	b.unchanged = 0
	for j, c := range chosen {
		if j == pos {
			continue
		}
		b.unchanged++
		for f, v := range e.cols[c] {
			if v < bv[f] {
				bv[f] = v
			}
		}
	}
}

// EvalSwap returns the exact unassigned E-cost of the center set formed by
// the prepared base plus candidates[c] — i.e. chosen with chosen[pos]
// replaced by c, for the (chosen, pos) of the last PrepareBase on b. It
// writes min(base_f, col_f) for every atom, then runs the emax sweep on
// them: O(N) plus the sweep, allocation-free in steady state, and
// bit-identical to Compiled.EcostUnassigned of the same center set. Safe to
// call concurrently with itself given distinct scratches (the base is
// read-only during a scan).
func (e *SwapEvaluator[P]) EvalSwap(b *SwapBase, s *SwapScratch, c int) float64 {
	vals, col := s.vals, e.cols[c]
	col = col[:len(vals)]
	for f, v := range b.vals[:len(vals)] {
		if cv := col[f]; cv < v {
			v = cv
		}
		vals[f] = v
	}
	return s.arena.ExpectedMaxFlat(vals, e.probs, e.ptIdx, e.nPts)
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

// EcostSweepCtx evaluates the full single-swap neighborhood of a center set
// on the exact unassigned objective over a raw point set, compiling it per
// call; see EcostSweepCompiled for the semantics. Callers solving one
// instance repeatedly should Compile once and use EcostSweepCompiled, which
// reuses the instance's memoized evaluator across calls.
func EcostSweepCtx[P any](ctx context.Context, space metricspace.Space[P], pts []uncertain.Point[P], candidates []P, chosen []int, workers int, disableCache bool) ([][]float64, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: EcostSweep needs candidates")
	}
	c, err := Compile(ctx, space, pts, candidates)
	if err != nil {
		return nil, err
	}
	return EcostSweepCompiled(ctx, c, chosen, workers, disableCache)
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

// ecostSweepRows fills the k×m sweep matrix on caller-owned scan state —
// the shared inner loop of EcostSweepCompiled (fresh state per call) and
// SolveUnassignedLSSweepCompiled (the descent's state, reused: satellite of
// the candidate-index PR — the sweep then allocates only its result rows).
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
// arena), which may be sized for more centers than len(chosen) — the
// oracle descent shares its k-sized scratches here.
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
