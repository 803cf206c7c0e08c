package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metricspace"
	"repro/internal/par"
)

// DefaultIndexPivots is the pivot count of the memoized CandIndex build.
const DefaultIndexPivots = 16

// CandIndex holds P pivots chosen maxmin (farthest-first) over the
// candidate set. No solver reads it: the swap scan prunes by the t*·G∞
// bound, which needs no index. Compiled.CandIndex keeps it only for the
// benchmark layer that times its build. Immutable; 4·P bytes, memoized on
// the Compiled and visible to CacheBytes/DropCaches.
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
