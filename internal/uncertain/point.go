// Package uncertain implements the paper's input model: uncertain points.
//
// An uncertain point P_i is an independent discrete distribution over z_i
// possible locations in a metric space; a realization of a set of uncertain
// points picks one location per point with the product probability. The
// package also builds the paper's two surrogate constructions:
//
//   - the expected point P̄ = Σ_j p_j·P_j (Euclidean space only, Theorem 2.1
//     and the Euclidean pipelines), and
//   - the 1-center P̃ = argmin_q Σ_j p_j·d(P_j, q) of the point's own
//     distribution (any metric space; this is the weighted 1-median of the
//     distribution, computed by Weiszfeld in Euclidean space and by candidate
//     scan in finite spaces).
package uncertain

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/sebo"
)

// ProbSumTol is the allowed deviation of Σ probs from 1.
const ProbSumTol = 1e-9

// Point is one uncertain point: location j occurs with probability Probs[j].
type Point[P any] struct {
	Locs  []P
	Probs []float64
}

// New validates and constructs an uncertain point. Probabilities must be
// non-negative, finite and sum to 1 within ProbSumTol; locs and probs must
// have equal nonzero length.
func New[P any](locs []P, probs []float64) (Point[P], error) {
	p := Point[P]{Locs: locs, Probs: probs}
	if err := p.Validate(); err != nil {
		return Point[P]{}, err
	}
	return p, nil
}

// NewUniform returns an uncertain point uniform over locs.
func NewUniform[P any](locs []P) (Point[P], error) {
	if len(locs) == 0 {
		return Point[P]{}, fmt.Errorf("uncertain: no locations")
	}
	probs := make([]float64, len(locs))
	for i := range probs {
		probs[i] = 1 / float64(len(locs))
	}
	return Point[P]{Locs: locs, Probs: probs}, nil
}

// NewDeterministic returns a certain point: one location with probability 1.
func NewDeterministic[P any](loc P) Point[P] {
	return Point[P]{Locs: []P{loc}, Probs: []float64{1}}
}

// Z returns the number of possible locations.
func (p Point[P]) Z() int { return len(p.Locs) }

// Validate checks the structural invariants of the point.
func (p Point[P]) Validate() error {
	if len(p.Locs) == 0 {
		return fmt.Errorf("uncertain: point with no locations")
	}
	if len(p.Locs) != len(p.Probs) {
		return fmt.Errorf("uncertain: %d locations but %d probabilities", len(p.Locs), len(p.Probs))
	}
	var sum float64
	for j, pr := range p.Probs {
		if pr < 0 || math.IsNaN(pr) || math.IsInf(pr, 0) {
			return fmt.Errorf("uncertain: probability %d = %g", j, pr)
		}
		sum += pr
	}
	if math.Abs(sum-1) > ProbSumTol {
		return fmt.Errorf("uncertain: probabilities sum to %g, want 1", sum)
	}
	return nil
}

// Normalize rescales the probabilities to sum exactly to 1. It returns an
// error if the current sum is not positive. Useful when building instances
// from noisy external data before Validate.
func (p *Point[P]) Normalize() error {
	var sum float64
	for _, pr := range p.Probs {
		if pr < 0 || math.IsNaN(pr) || math.IsInf(pr, 0) {
			return fmt.Errorf("uncertain: cannot normalize probability %g", pr)
		}
		sum += pr
	}
	if sum <= 0 {
		return fmt.Errorf("uncertain: cannot normalize, total probability %g", sum)
	}
	for j := range p.Probs {
		p.Probs[j] /= sum
	}
	return nil
}

// Sample draws one realization of the point's location.
func (p Point[P]) Sample(rng *rand.Rand) P {
	u := rng.Float64()
	var acc float64
	for j, pr := range p.Probs {
		acc += pr
		if u < acc {
			return p.Locs[j]
		}
	}
	return p.Locs[len(p.Locs)-1]
}

// Mode returns the most probable location (ties broken by lowest index).
func (p Point[P]) Mode() P {
	best, bestP := 0, -1.0
	for j, pr := range p.Probs {
		if pr > bestP {
			best, bestP = j, pr
		}
	}
	return p.Locs[best]
}

// ExpectedDist returns E d(P, q) = Σ_j p_j · d(P_j, q), the expected distance
// from the uncertain point to a fixed point q (the quantity the ED assignment
// minimizes).
func ExpectedDist[P any](space metricspace.Space[P], p Point[P], q P) float64 {
	var s float64
	for j, loc := range p.Locs {
		s += p.Probs[j] * space.Dist(loc, q)
	}
	return s
}

// ExpectedPoint returns P̄ = Σ_j p_j·P_j, the Euclidean expected point
// (computable in O(z), per the paper's remark after Theorem 2.1).
func ExpectedPoint(p Point[geom.Vec]) geom.Vec {
	if err := p.Validate(); err != nil {
		panic("uncertain: ExpectedPoint of invalid point: " + err.Error())
	}
	return ExpectedPointUnchecked(p)
}

// ExpectedPointUnchecked is ExpectedPoint without the per-call Validate —
// the hot-path variant for points that are already validated (a compiled
// instance validates once at compile time). The caller guarantees validity.
func ExpectedPointUnchecked(p Point[geom.Vec]) geom.Vec {
	out := geom.NewVec(p.Locs[0].Dim())
	for j, loc := range p.Locs {
		out.AxpyInPlace(p.Probs[j], loc)
	}
	return out
}

// ExpectedPoints maps ExpectedPoint over a set.
func ExpectedPoints(pts []Point[geom.Vec]) []geom.Vec {
	out := make([]geom.Vec, len(pts))
	for i, p := range pts {
		out[i] = ExpectedPoint(p)
	}
	return out
}

// OneCenterEuclidean returns P̃ for a Euclidean uncertain point: the weighted
// geometric median of its distribution (the exact minimizer of
// Σ_j p_j·‖P_j − q‖ over q ∈ R^d), via Weiszfeld. Zero-probability locations
// are dropped.
func OneCenterEuclidean(p Point[geom.Vec]) geom.Vec {
	if err := p.Validate(); err != nil {
		panic("uncertain: OneCenterEuclidean of invalid point: " + err.Error())
	}
	return OneCenterEuclideanUnchecked(p)
}

// OneCenterEuclideanUnchecked is OneCenterEuclidean without the per-call
// Validate — the hot-path variant for already-validated points (a compiled
// instance validates once at compile time). The caller guarantees validity.
func OneCenterEuclideanUnchecked(p Point[geom.Vec]) geom.Vec {
	var locs []geom.Vec
	var ws []float64
	for j, w := range p.Probs {
		if w > 0 {
			locs = append(locs, p.Locs[j])
			ws = append(ws, w)
		}
	}
	return sebo.GeometricMedian(locs, ws, sebo.MedianOptions{})
}

// OneCenterDiscrete returns P̃ restricted to a candidate set: the candidate
// minimizing the expected distance Σ_j p_j·d(P_j, q), together with that
// cost. This is the general-metric-space construction (Theorems 2.6, 2.7),
// where candidates are typically all points of a finite space. It panics if
// candidates is empty.
func OneCenterDiscrete[P any](space metricspace.Space[P], p Point[P], candidates []P) (P, float64) {
	if len(candidates) == 0 {
		panic("uncertain: OneCenterDiscrete with no candidates")
	}
	best := 0
	bestCost := math.Inf(1)
	for c, cand := range candidates {
		if cost := ExpectedDist(space, p, cand); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return candidates[best], bestCost
}

// OneCentersDiscrete maps OneCenterDiscrete over a set.
func OneCentersDiscrete[P any](space metricspace.Space[P], pts []Point[P], candidates []P) []P {
	out := make([]P, len(pts))
	for i, p := range pts {
		out[i], _ = OneCenterDiscrete(space, p, candidates)
	}
	return out
}

// OneCentersEuclidean maps OneCenterEuclidean over a set.
func OneCentersEuclidean(pts []Point[geom.Vec]) []geom.Vec {
	out := make([]geom.Vec, len(pts))
	for i, p := range pts {
		out[i] = OneCenterEuclidean(p)
	}
	return out
}
