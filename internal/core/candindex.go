package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/metricspace"
	"repro/internal/par"
)

// CandidateIndexMode selects how the local-search neighborhood scan prunes
// and restricts its candidates.
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
	// CandIndexOff scans every candidate exactly — the oracle path.
	CandIndexOff
	// CandIndexPrune keeps the scan exact but skips candidates whose t*·G∞
	// lower bound certifies they cannot beat the scan-entry incumbent:
	// trajectories are bit-identical to CandIndexOff (pinned by tests and a
	// fuzz target on the bound).
	CandIndexPrune
	// CandIndexApprox restricts each scan position, pruned the same way, to
	// the graph neighborhoods of the current centers plus the CandIndex
	// pivots. Fast and usually near-exact, but the trajectory may differ
	// from the oracle — an explicit opt-in, never a default.
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

// Default approximate-mode knobs: the pivot count and the graph degree.
// Builds with these values are memoized on the Compiled instance; other
// values are computed fresh per call.
const (
	DefaultIndexPivots = 16
	DefaultGraphDegree = 8
)

// CandIndex holds P pivots chosen maxmin (farthest-first) over the
// candidate set. Approximate mode adds them to every scan position as
// global probes, so a descent confined to graph neighborhoods still tries a
// spread-out sample of the whole set. Immutable; 4·P bytes, memoized on the
// Compiled and visible to CacheBytes/DropCaches.
type CandIndex struct {
	pivots []int32 // pivot candidate indices, maxmin order
}

// Pivots returns the pivot candidate indices — fewer than requested only
// when the candidate set has fewer distinct points; callers must not mutate
// them.
func (ix *CandIndex) Pivots() []int32 { return ix.pivots }

// Bytes returns the index's exact memory cost — the CacheBytes contribution
// documented in DESIGN.md §11: 4·P.
func (ix *CandIndex) Bytes() int64 { return 4 * int64(len(ix.pivots)) }

// newCandIndex selects the pivots by maxmin (Gonzalez farthest-first)
// seeding from candidate 0: repeatedly take the candidate farthest from the
// chosen pivots. Each round's distance refresh fans out over `workers`;
// the farthest candidate is picked serially, so the pivots are
// deterministic for any worker count. Stops early when every remaining
// candidate duplicates a pivot. Cost: P·m metric calls.
func newCandIndex[P any](ctx context.Context, space metricspace.Space[P], cands []P, pivots, workers int) (*CandIndex, error) {
	m := len(cands)
	if m == 0 {
		return nil, fmt.Errorf("core: candidate index needs candidates")
	}
	minD := make([]float64, m)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	piv := make([]int32, 0, min(pivots, m))
	next := 0
	for len(piv) < cap(piv) {
		piv = append(piv, int32(next))
		pc := cands[next]
		if err := par.For(ctx, m, workers, func(i int) {
			minD[i] = min(minD[i], space.Dist(cands[i], pc))
		}); err != nil {
			return nil, err
		}
		far, farD := -1, -1.0
		for i, d := range minD {
			if d > farD {
				far, farD = i, d
			}
		}
		if far < 0 || farD == 0 {
			break
		}
		next = far
	}
	return &CandIndex{pivots: piv}, nil
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
