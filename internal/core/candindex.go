package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/metricspace"
	"repro/internal/par"
)

// CandidateIndexMode selects how the local-search neighborhood scan uses the
// instance's candidate index (CandIndex / CandGraph).
//
// The zero value (CandIndexDefault) resolves to the environment's default —
// CandIndexPrune — so zero-valued options and requests get safe pruning
// without opting in, while serving layers can still distinguish "caller did
// not say" from an explicit choice.
type CandidateIndexMode int

const (
	// CandIndexDefault defers to the surrounding configuration: a request
	// inherits its solver's mode, a solver inherits the package default,
	// which is CandIndexPrune.
	CandIndexDefault CandidateIndexMode = iota
	// CandIndexOff scans every candidate exactly — the PR-3 oracle path.
	CandIndexOff
	// CandIndexPrune keeps the scan exact but skips candidates whose
	// triangle-inequality lower bound already certifies they cannot beat the
	// scan-entry incumbent. Provably safe: trajectories are bit-identical to
	// CandIndexOff (pinned by tests and a fuzz target on the bound).
	CandIndexPrune
	// CandIndexApprox restricts each scan position to the candidate
	// neighborhood graph of the current centers (plus the pivots). Fast and
	// usually near-exact, but the trajectory may differ from the oracle —
	// an explicit opt-in, never a default.
	CandIndexApprox
)

// String names the mode for logs and JSON gateways.
func (m CandidateIndexMode) String() string {
	switch m {
	case CandIndexDefault:
		return "default"
	case CandIndexOff:
		return "off"
	case CandIndexPrune:
		return "prune"
	case CandIndexApprox:
		return "approx"
	}
	return fmt.Sprintf("CandidateIndexMode(%d)", int(m))
}

// resolve maps CandIndexDefault to the package default (CandIndexPrune).
func (m CandidateIndexMode) resolve() CandidateIndexMode {
	if m == CandIndexDefault {
		return CandIndexPrune
	}
	return m
}

// Default index knobs: the pivot count of the prune bound and the per-node
// degree of the approximate neighborhood graph. Builds with these values are
// memoized on the Compiled instance; other values are computed fresh per
// call (the same precedent Surrogates sets for foreign candidate sets).
const (
	DefaultIndexPivots = 16
	DefaultGraphDegree = 8
)

// CandIndex is the pivot layer of the candidate index: P pivots chosen
// maxmin (farthest-first) over the candidate set, the P×m pivot→candidate
// distance table, and a per-candidate expected-distance surrogate — the
// precomputed, immutable inputs of a triangle-inequality lower bound on the
// exact swap cost.
//
// The bound rests on the E-cost functional being 1-Lipschitz in the
// candidate under the metric: for a fixed prepared base b (the per-atom min
// over the k−1 unchanged centers), every realization's value
// max_i min(b_f, d_f(c)) moves by at most |d_f(c) − d_f(p)| ≤ d(c, p) when
// the swapped-in candidate moves from p to c (min and max are 1-Lipschitz,
// expectation is a convex combination). Hence, writing F(c) for
// EvalSwap(base, c),
//
//	F(c) ≥ F(p) − d(p, c)            for every pivot p,
//
// so after the scan evaluates the P pivots exactly, max_p(F(p) − d(p, c))
// lower-bounds every remaining candidate's exact cost using zero metric
// calls and zero column reads. For k = 1 (empty base) the per-candidate
// surrogate expDist[c] = max_i E[d(X_i, c)] ≤ E[max_i d(X_i, c)] = F(c)
// joins the bound.
//
// A CandIndex is immutable after construction and safe to share across
// goroutines and solves; per-scan state lives in a caller-owned PruneState.
// Memory: 8·P·m (table) + 8·m (surrogates) + 4·P (pivot ids) bytes,
// memoized on the Compiled next to the evaluator and visible to
// CacheBytes/DropCaches.
type CandIndex[P any] struct {
	pivots    []int32     // pivot candidate indices, maxmin order
	pivotDist [][]float64 // [p][c] = d(candidate pivots[p], candidate c)
	expDist   []float64   // [c] = max_i Σ_f probs[f]·d(loc_f, c) over point i's atoms
}

// NumPivots returns P, the number of pivots actually selected (less than the
// requested count only when the candidate set has fewer distinct points).
func (ix *CandIndex[P]) NumPivots() int { return len(ix.pivots) }

// Pivots returns the pivot candidate indices; callers must not mutate them.
func (ix *CandIndex[P]) Pivots() []int32 { return ix.pivots }

// Bytes returns the index's exact memory cost — the CacheBytes contribution
// documented in DESIGN.md §11: 8·P·m + 8·m + 4·P.
func (ix *CandIndex[P]) Bytes() int64 {
	m := int64(len(ix.expDist))
	p := int64(len(ix.pivots))
	return 8*p*m + 8*m + 4*p
}

// PruneState is the per-scan-position state of pruned scanning: the exact
// E-cost of every pivot at the current (chosen, pos), and the incumbent
// threshold candidates must beat. One state per descent; the scan overwrites
// it at every position. It must not be written concurrently with LowerBound
// reads — a scan fills pivotCost first, then fans the bound checks out.
type PruneState struct {
	pivotCost []float64
	threshold float64
}

// NewPruneState returns a fresh scan state sized for this index.
func (ix *CandIndex[P]) NewPruneState() *PruneState {
	return &PruneState{pivotCost: make([]float64, len(ix.pivots))}
}

// LowerBound returns a certified lower bound on EvalSwap(base, c) — the
// exact unassigned E-cost of the prepared base's center set with candidate c
// swapped in — from the pivot costs cached in st:
//
//	max_p (pivotCost[p] − pivotDist[p][c])
//
// joined, when the base is empty (k = 1), by the expected-distance surrogate
// expDist[c]. O(P) float ops, no metric calls. The bound never exceeds the
// exact cost by more than floating-point roundoff (≤ 1e-12 relative, pinned
// by tests and FuzzLowerBound), which is what makes pruning against a
// threshold 1e-9-relative below safe.
func (ix *CandIndex[P]) LowerBound(b *SwapBase, st *PruneState, c int) float64 {
	lb := math.Inf(-1)
	for p, pc := range st.pivotCost {
		if v := pc - ix.pivotDist[p][c]; v > lb {
			lb = v
		}
	}
	if b != nil && b.unchanged == 0 {
		if v := ix.expDist[c]; v > lb {
			lb = v
		}
	}
	return lb
}

// newCandIndex builds the pivot index over the compiled instance's candidate
// set: maxmin (Gonzalez farthest-first) pivot seeding from candidate 0, the
// P×m distance table (parallelized over pivots), and the per-candidate
// expected-distance surrogates read straight off the evaluator's distance-RV
// columns — zero additional metric calls for that last term.
func newCandIndex[P any](ctx context.Context, c *Compiled[P], ev *SwapEvaluator[P], pivots, workers int) (*CandIndex[P], error) {
	cands := c.CandidatesOrLocations()
	m := len(cands)
	if m == 0 {
		return nil, fmt.Errorf("core: candidate index needs candidates")
	}
	if pivots > m {
		pivots = m
	}
	// Maxmin seeding: start at candidate 0, repeatedly take the candidate
	// farthest from the chosen pivots. Deterministic; stops early when every
	// remaining candidate duplicates a pivot.
	minD := make([]float64, m)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	piv := make([]int32, 0, pivots)
	next := 0
	for len(piv) < pivots {
		piv = append(piv, int32(next))
		pc := cands[next]
		far, farD := -1, -1.0
		for i := range cands {
			if d := c.space.Dist(cands[i], pc); d < minD[i] {
				minD[i] = d
			}
			if minD[i] > farD {
				far, farD = i, minD[i]
			}
		}
		if far < 0 || farD == 0 {
			break
		}
		next = far
	}
	ix := &CandIndex[P]{
		pivots:    piv,
		pivotDist: make([][]float64, len(piv)),
		expDist:   make([]float64, m),
	}
	if err := par.For(ctx, len(piv), workers, func(p int) {
		row := make([]float64, m)
		pc := cands[ix.pivots[p]]
		for i := range cands {
			row[i] = c.space.Dist(pc, cands[i])
		}
		ix.pivotDist[p] = row
	}); err != nil {
		return nil, err
	}
	// expDist[c] = max_i E[d(X_i, c)]: one streaming pass over candidate c's
	// distance-RV column, accumulating per point (atoms of one point are
	// contiguous in the flat arena).
	if err := par.For(ctx, m, workers, func(cd int) {
		col := ev.cols[cd]
		best, acc := 0.0, 0.0
		cur := int32(-1)
		for f, v := range col {
			if ev.ptIdx[f] != cur {
				if acc > best {
					best = acc
				}
				acc, cur = 0, ev.ptIdx[f]
			}
			acc += ev.probs[f] * v
		}
		if acc > best {
			best = acc
		}
		ix.expDist[cd] = best
	}); err != nil {
		return nil, err
	}
	return ix, nil
}

// CandGraph is the neighborhood layer of the candidate index: a k-NN graph
// over the candidate set (degree nearest neighbors per candidate, built by a
// deterministic synchronous NN-descent), powering the approximate scan mode
// that examines only the neighborhoods of the current centers.
//
// The graph is immutable after construction, independent of worker count
// (each round recomputes every node's list purely from the previous round's
// state), and byte-accounted like every other memoized cache: 4·degree·m
// bytes, visible to CacheBytes/DropCaches.
type CandGraph struct {
	degree int
	m      int
	nbrs   []int32 // flat [c*degree + j], ascending by (distance, index)
}

// Degree returns the per-node neighbor count (capped at m−1).
func (g *CandGraph) Degree() int { return g.degree }

// Neighbors returns candidate c's neighbor indices, nearest first; callers
// must not mutate the slice.
func (g *CandGraph) Neighbors(c int) []int32 {
	if g.degree == 0 {
		return nil
	}
	return g.nbrs[c*g.degree : (c+1)*g.degree]
}

// Bytes returns the graph's exact memory cost: 4·degree·m.
func (g *CandGraph) Bytes() int64 { return 4 * int64(len(g.nbrs)) }

// maxGraphRounds bounds NN-descent; the build converges (no list changes)
// well before this on any realistic instance.
const maxGraphRounds = 12

// graphNb is one (distance, candidate) entry of an NN-descent list.
type graphNb struct {
	d   float64
	idx int32
}

// splitmix64 is the deterministic seed expander of the NN-descent init: no
// global RNG, no allocation, identical graphs on every build.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newCandGraph builds the degree-NN candidate graph by synchronous
// NN-descent: seeded with deterministic pseudo-random neighbor lists, each
// round recomputes every node's list from the previous round's lists and
// their reverses (neighbors of neighbors), keeping the degree best by
// (distance, index). Recomputing from the previous round only — never from
// a neighbor's in-progress list — is what makes the result independent of
// worker count and schedule. Cost: O(rounds · m · degree²) metric calls.
func newCandGraph[P any](ctx context.Context, space metricspace.Space[P], cands []P, degree, workers int) (*CandGraph, error) {
	m := len(cands)
	if m == 0 {
		return nil, fmt.Errorf("core: candidate graph needs candidates")
	}
	k := degree
	if k > m-1 {
		k = m - 1
	}
	if k <= 0 {
		return &CandGraph{degree: 0, m: m}, nil
	}
	lists := make([][]graphNb, m)
	if err := par.For(ctx, m, workers, func(c int) {
		l := make([]graphNb, 0, k)
		seen := map[int32]bool{int32(c): true}
		s := uint64(c)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for len(l) < k {
			s = splitmix64(s)
			nb := int32(s % uint64(m))
			if seen[nb] {
				continue
			}
			seen[nb] = true
			l = append(l, graphNb{d: space.Dist(cands[c], cands[nb]), idx: nb})
		}
		sortNbs(l)
		lists[c] = l
	}); err != nil {
		return nil, err
	}
	for round := 0; round < maxGraphRounds; round++ {
		// Reverse adjacency of the previous round, capped at k entries per
		// node (the standard NN-descent reverse sample, made deterministic
		// by building it serially in node order).
		rev := make([][]int32, m)
		for c, l := range lists {
			for _, nb := range l {
				if len(rev[nb.idx]) < k {
					rev[nb.idx] = append(rev[nb.idx], int32(c))
				}
			}
		}
		next := make([][]graphNb, m)
		changed := make([]bool, m)
		if err := par.For(ctx, m, workers, func(c int) {
			// Join pool: own neighbors plus reverse neighbors, then expand
			// one hop through the same two lists of every pool member.
			pool := make([]int32, 0, 2*k)
			pool = append(pool, rev[c]...)
			for _, nb := range lists[c] {
				pool = append(pool, nb.idx)
			}
			cur := lists[c]
			seen := make(map[int32]bool, 4*k*k)
			seen[int32(c)] = true
			for _, nb := range cur {
				seen[nb.idx] = true
			}
			merged := append(make([]graphNb, 0, len(cur)+4*k*k), cur...)
			try := func(x int32) {
				if seen[x] {
					return
				}
				seen[x] = true
				merged = append(merged, graphNb{d: space.Dist(cands[c], cands[x]), idx: x})
			}
			for _, b := range pool {
				try(b)
				for _, nb := range lists[b] {
					try(nb.idx)
				}
				for _, r := range rev[b] {
					try(r)
				}
			}
			sortNbs(merged)
			if len(merged) > k {
				merged = merged[:k]
			}
			next[c] = merged
			if len(merged) != len(cur) {
				changed[c] = true
				return
			}
			for i := range merged {
				if merged[i].idx != cur[i].idx {
					changed[c] = true
					return
				}
			}
		}); err != nil {
			return nil, err
		}
		lists = next
		any := false
		for _, ch := range changed {
			if ch {
				any = true
				break
			}
		}
		if !any {
			break
		}
	}
	g := &CandGraph{degree: k, m: m, nbrs: make([]int32, m*k)}
	for c, l := range lists {
		for j, nb := range l {
			g.nbrs[c*k+j] = nb.idx
		}
	}
	return g, nil
}

// sortNbs orders a neighbor list ascending by (distance, index) — the total
// order that keeps every NN-descent round, and therefore the final graph,
// deterministic.
func sortNbs(l []graphNb) {
	sort.Slice(l, func(x, y int) bool {
		if l[x].d != l[y].d {
			return l[x].d < l[y].d
		}
		return l[x].idx < l[y].idx
	})
}
