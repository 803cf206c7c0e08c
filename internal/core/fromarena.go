package core

import (
	"fmt"

	"repro/internal/emax"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// FromArena assembles a Compiled directly from an already-flattened atom
// arena — the zero-copy entry point of the snapshot store (internal/arena).
// The columns must satisfy every invariant Compile establishes: probs holds
// only positive finite masses summing to 1 per point, offsets is strictly
// increasing from 0 to len(locs), ptIdx inverts offsets, and maxZ/dim match
// the data. The snapshot decoder validates all of that against the on-disk
// bytes before calling here; FromArena itself performs only the structural
// length checks that keep an inconsistent call from building out-of-bounds
// point views.
//
// The returned Compiled aliases every slice it is given — for a mapped
// snapshot the arena columns point straight into the mapped region, so the
// mapping must outlive the instance. xy is a Euclidean instance's row-major
// coordinate column (len(locs)·dim values) that every locs[f] aliases at
// xy[f·dim:(f+1)·dim], and nil in any other space. allLocs is the
// CandidatesOrLocations default (all input locations including
// zero-probability ones) and may be the locs slice itself when nothing was
// pruned; cands may be nil. The memoized surrogate caches start empty and
// rebuild lazily exactly as after a Compile, and the swap evaluator's
// layout is rebuilt from the columns, O(n) — which is what keeps a
// frozen-then-opened instance's solves bit-identical to the in-memory one.
func FromArena[P any](space metricspace.Space[P], locs []P, xy, probs []float64, offsets, ptIdx []int32, allLocs, cands []P, dim, maxZ int) (*Compiled[P], error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	n := len(offsets) - 1
	if n < 1 {
		return nil, fmt.Errorf("core: arena offsets describe %d points", n)
	}
	if len(probs) != len(locs) || len(ptIdx) != len(locs) {
		return nil, fmt.Errorf("core: arena columns disagree: %d locs, %d probs, %d ptIdx", len(locs), len(probs), len(ptIdx))
	}
	if offsets[0] != 0 || int(offsets[n]) != len(locs) {
		return nil, fmt.Errorf("core: arena offsets span [%d,%d], want [0,%d]", offsets[0], offsets[n], len(locs))
	}
	_, isEu := any(space).(metricspace.Euclidean)
	if isEu && len(xy) != len(locs)*dim {
		return nil, fmt.Errorf("core: arena coordinate column holds %d values for %d atoms of dimension %d", len(xy), len(locs), dim)
	}
	if !isEu && xy != nil {
		return nil, fmt.Errorf("core: arena coordinate column outside Euclidean space")
	}
	c := &Compiled[P]{
		space:       space,
		cands:       cands,
		pts:         make([]uncertain.Point[P], n),
		locs:        locs,
		xy:          xy,
		probs:       probs,
		offsets:     offsets,
		ptIdx:       ptIdx,
		allLocs:     allLocs,
		maxZ:        maxZ,
		dim:         dim,
		isEuclidean: isEu,
	}
	for i := 0; i < n; i++ {
		start, end := offsets[i], offsets[i+1]
		if start > end || int(end) > len(locs) {
			return nil, fmt.Errorf("core: arena offsets not monotone at point %d", i)
		}
		c.pts[i] = uncertain.Point[P]{
			Locs:  locs[start:end:end],
			Probs: probs[start:end:end],
		}
	}
	c.lay = emax.NewLayout(probs, offsets, ptIdx)
	return c, nil
}
