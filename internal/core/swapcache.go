package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/emax"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/obs"
)

// SwapEvaluator is the incremental exact evaluator for the unassigned
// objective Ecost(C) = E[max_i min_{c∈C} d(X_i, c)] over center sets drawn
// from a fixed candidate set.
//
// It stores no distances: a candidate's atom distances d(loc_f, c) are
// computed where a scan reads them, through the compiled instance's atom
// loops (Compiled.distsToVec and minDistTo), so every atom has the bits the
// from-scratch E-cost sees. Its per-instance state is the compiled
// instance's emax.Layout and G∞, so it costs O(1) to make.
//
// A neighborhood scan factors through PrepareBase, which fixes one scan
// position's base — each atom's min distance over the k−1 unchanged
// centers — in a caller-owned SwapBase. EvalSwap(c) then finds the split
// t*(c) of the emax sweep and runs one fused min(base, d(·, c)) pass into
// it (emax.Arena.ExpectedMaxMinFlat), computing candidate c's atoms only
// for the points the base does not settle; no allocations in steady
// state. SetThreshold arms two prune certificates (DESIGN §11): Ecost ≥
// t*·G∞, checked in the t* pass, and a per-point expected-excess bound,
// checked in the fused pass before its sort and sweep.
//
// The evaluator is immutable and safe to share across goroutines; scan
// state lives in caller-owned values, one SwapBase (O(N + n)) per scan and
// one SwapScratch per worker. EvalSwap sweeps the same per-atom distances
// EcostUnassigned computes from scratch, so incremental and from-scratch
// costs are bit-identical.
type SwapEvaluator[P any] struct {
	c     *Compiled[P]
	cands []P
	vc    []geom.Vec // Euclidean: the candidates' coordinates; nil elsewhere
}

// SwapBase is the per-scan-position state of a neighborhood scan, written
// by PrepareBase and SetThreshold and read by EvalSwap. A zero SwapBase is
// ready to use: PrepareBase grows its buffers to the evaluator's shape and
// reuses them afterwards, so one base can serve evaluators of different
// instances. It must not be written concurrently with reads; a scan
// prepares the base once, then fans EvalSwap out over candidates.
type SwapBase struct {
	vals  []float64 // atom f -> min distance over the unchanged centers
	dist  []float64 // scratch: one unchanged center's atom distances
	ptMin []float64 // point i -> baseMin_i, min of vals over its atoms
	ptMax []float64 // point i -> max of vals over its atoms
	order []int32   // points by descending ptMin
	byMax []int32   // points by descending ptMax
	theta float64   // candidates with t* ≥ theta are certified; +Inf = none
	cost0 float64   // the expected-excess certificate's cost₀; +Inf = none
}

// SwapScratch is the per-worker mutable state of EvalSwap: its sweep arena,
// and the numbers of candidates the t*·G∞ bound (pruned) and the
// expected-excess certificate (excess) skipped since the caller last zeroed
// them. A zero SwapScratch is ready to use; a neighborhood scan hands each
// worker slot its own.
type SwapScratch struct {
	arena          emax.Arena
	pruned, excess int
}

// scanState is the reusable memory of one solve's or sweep's scans: the
// base, one scratch per worker, and a descent's per-candidate cost and
// membership rows. Its buffers grow to the largest instance served.
type scanState struct {
	base      SwapBase
	scratches []*SwapScratch
	costs     []float64
	inSet     []bool
}

// scanPool recycles scan state across solves, sweeps and instances, so a
// warm scan allocates none of it.
var scanPool = sync.Pool{New: func() any { return new(scanState) }}

// getScanState takes a pooled scanState with at least workers scratches;
// the caller returns it with scanPool.Put once no worker reads it.
func getScanState(workers int) *scanState {
	st := scanPool.Get().(*scanState)
	for len(st.scratches) < workers {
		st.scratches = append(st.scratches, new(SwapScratch))
	}
	return st
}

// newSwapEvaluator returns the evaluator over CandidatesOrLocations().
func newSwapEvaluator[P any](c *Compiled[P]) (*SwapEvaluator[P], error) {
	cands := c.CandidatesOrLocations()
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: SwapEvaluator needs candidates")
	}
	e := &SwapEvaluator[P]{c: c, cands: cands}
	if c.xy != nil {
		e.vc = any(cands).([]geom.Vec)
	}
	return e, nil
}

// vec returns candidate c's coordinates in Euclidean space, nil elsewhere:
// Compiled.vec of it, asserted once per evaluator.
func (e *SwapEvaluator[P]) vec(c int) geom.Vec {
	if e.vc == nil {
		return nil
	}
	return e.vc[c]
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// PrepareBase fixes the scan position: it computes every atom's min
// distance over chosen[j] for j ≠ pos (+Inf when k = 1) and each point's
// minimum and maximum of those into the caller-owned base, orders the
// points by that minimum and by that maximum, both descending, and
// disarms both certificates. Cost: O(N·(k−1)) distances plus the two
// sorts, amortized over the whole candidate scan; allocation-free once b
// has served a shape this large.
func (e *SwapEvaluator[P]) PrepareBase(b *SwapBase, chosen []int, pos int) {
	n, atoms := e.c.NumPoints(), e.c.NumAtoms()
	b.vals, b.dist = resize(b.vals, atoms), resize(b.dist, atoms)
	b.ptMin, b.ptMax = resize(b.ptMin, n), resize(b.ptMax, n)
	b.order, b.byMax = resize(b.order, n), resize(b.byMax, n)
	bv := b.vals
	for f := range bv {
		bv[f] = math.Inf(1)
	}
	for j, c := range chosen {
		if j == pos {
			continue
		}
		e.c.distsToVec(b.dist, 0, e.cands[c], e.vec(c))
		for f, v := range b.dist {
			if v < bv[f] {
				bv[f] = v
			}
		}
	}
	offsets := e.c.offsets
	lo := offsets[0]
	for i, hi := range offsets[1:] {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range bv[lo:hi] {
			mn, mx = min(mn, v), max(mx, v)
		}
		b.ptMin[i], b.ptMax[i], b.order[i], b.byMax[i] = mn, mx, int32(i), int32(i)
		lo = hi
	}
	slices.SortFunc(b.order, func(x, y int32) int { return cmp.Compare(b.ptMin[y], b.ptMin[x]) })
	slices.SortFunc(b.byMax, func(x, y int32) int { return cmp.Compare(b.ptMax[y], b.ptMax[x]) })
	b.theta, b.cost0 = math.Inf(1), math.Inf(1)
}

// SetThreshold arms the prepared base's prune certificates for an
// incumbent cost cost₀: until the next PrepareBase, EvalSwap returns +Inf
// for every candidate whose t* reaches θ = cost₀/G∞, and for every
// candidate one of whose points has an expected excess over t* that bounds
// its cost at or above cost₀ (emax.Arena.ExpectedMaxMinFlat). Either way
// its cost is at least cost₀ up to roundoff far below a relative 1e-12.
func (e *SwapEvaluator[P]) SetThreshold(b *SwapBase, cost0 float64) {
	b.theta, b.cost0 = cost0/e.c.lay.Mass(), cost0
}

// tStar returns t* = max_i min(baseMin_i, min_f d(loc_f, candidates[c]))
// over point i's atoms f, visiting points in descending baseMin order:
// once baseMin_i is at most the running max no later point can raise it,
// and a point's atoms are computed only until one is within the running
// max. It returns early, with a partial max ≥ b.theta, as soon as the
// threshold certifies c.
func (e *SwapEvaluator[P]) tStar(b *SwapBase, c int) float64 {
	q, qv := e.cands[c], e.vec(c)
	offsets := e.c.offsets
	t := math.Inf(-1)
	for _, i := range b.order {
		m := b.ptMin[i]
		if m <= t {
			break
		}
		if d := e.c.minDistTo(int(offsets[i]), int(offsets[i+1]), q, qv, t); d < m {
			m = d
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
// +Inf when one of SetThreshold's certificates covers c; a skip by the
// t*·G∞ bound increments s.pruned and one by the expected-excess
// certificate s.excess. Allocation-free in steady state; safe to call
// concurrently given distinct scratches.
func (e *SwapEvaluator[P]) EvalSwap(b *SwapBase, s *SwapScratch, c int) float64 {
	t := e.tStar(b, c)
	if t >= b.theta {
		s.pruned++
		return math.Inf(1)
	}
	q, qv := e.cands[c], e.vec(c)
	v, cut := s.arena.ExpectedMaxMinFlat(e.c.lay, b.vals, b.ptMax, b.byMax, t, b.cost0, func(i int, dst []float64) {
		e.c.distsToVec(dst, int(e.c.offsets[i]), q, qv)
	})
	if cut {
		s.excess++
	}
	return v
}

// Cost returns the exact unassigned E-cost of the chosen candidate set
// itself, through the same on-demand atoms. It overwrites the caller's
// base (base = chosen minus its first element, candidate = that element),
// so any previously prepared base must be re-prepared afterwards.
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
// don't change a min). The incremental evaluator serves all k·m entries
// with no certificate armed, so every entry is exact; the per-position
// scans fan out over `workers` goroutines with bit-identical results and
// honor ctx. disableCache evaluates every entry from scratch instead,
// through one Space.Dist call per atom and center: the oracle the tests
// hold the evaluator to.
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
	ev, err := newSwapEvaluator(c)
	if err != nil {
		return nil, err
	}
	st := getScanState(workers)
	out, err := ecostSweepRows(ctx, ev, &st.base, st.scratches, chosen, workers)
	scanPool.Put(st)
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
	m := len(ev.cands)
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

// ecostSweepFlatRows is the from-scratch sweep: every (position,
// candidate) entry is an exact evaluation on the caller's per-worker
// scratches (center buffer, flat distance values, sweep arena).
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
