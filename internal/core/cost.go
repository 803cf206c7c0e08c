// Package core implements the paper's contribution: constant-factor
// approximation algorithms for the k-center problem on uncertain points
// (Alipour & Jafari, PODS 2018).
//
// The package provides
//
//   - exact evaluators for the paper's expected-max cost Ecost (assigned and
//     unassigned), built on the independent-max sweep in internal/emax (O(N)
//     passes plus a sort of the few atoms above its threshold) rather than
//     exponential realization enumeration, plus enumeration and Monte-Carlo
//     cross-checking oracles;
//   - the three assignment rules of the paper — expected distance (ED),
//     expected point (EP) and 1-center (OC);
//   - the surrogate pipelines of Theorems 2.1–2.7: replace each uncertain
//     point by its expected point P̄ (Euclidean) or 1-center P̃ (any metric),
//     solve deterministic k-center on the surrogates, then assign by rule.
//
// The literature uses a second cost convention, max-of-expectations
// (Wang & Zhang 2015); MaxExpCost* implement it, and the documented
// inequality MaxExpCost ≤ Ecost is property-tested.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// validateAssignment checks that assign maps every point to a center index.
func validateAssignment[P any](pts []uncertain.Point[P], centers []P, assign []int) error {
	if len(centers) == 0 {
		return fmt.Errorf("core: no centers")
	}
	if len(assign) != len(pts) {
		return fmt.Errorf("core: assignment length %d, want %d", len(assign), len(pts))
	}
	for i, a := range assign {
		if a < 0 || a >= len(centers) {
			return fmt.Errorf("core: assignment[%d] = %d out of range [0,%d)", i, a, len(centers))
		}
	}
	return nil
}

// EcostAssigned returns the paper's assigned expected cost
//
//	Σ_R prob(R) · max_i d(P̂_i, centers[assign[i]])
//
// computed exactly in O(N) (see emax.Arena.ExpectedMaxFlat): for fixed centers
// and assignment the per-point distances are independent discrete random
// variables. The point set is compiled (validated, pruned, flattened) per
// call; callers evaluating one instance repeatedly should Compile once and
// use Compiled.EcostAssigned.
func EcostAssigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, assign []int) (float64, error) {
	ctx := context.Background()
	c, err := Compile(ctx, space, pts, nil)
	if err != nil {
		return 0, err
	}
	return c.EcostAssigned(ctx, centers, assign, 1)
}

// EcostUnassigned returns the paper's unassigned expected cost
//
//	Σ_R prob(R) · max_i min_j d(P̂_i, c_j)
//
// exactly: each realization of each point independently snaps to its nearest
// center, so the per-point min-distances are again independent RVs. Like
// EcostAssigned it compiles per call; see Compiled.EcostUnassigned.
func EcostUnassigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P) (float64, error) {
	ctx := context.Background()
	c, err := Compile(ctx, space, pts, nil)
	if err != nil {
		return 0, err
	}
	return c.EcostUnassigned(ctx, centers, 1)
}

// EcostAssignedNaive is the exponential enumeration oracle for EcostAssigned,
// used to validate the fast evaluator in tests. It refuses joint supports
// above maxStates.
func EcostAssignedNaive[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, assign []int, maxStates int) (float64, error) {
	if err := validateAssignment(pts, centers, assign); err != nil {
		return 0, err
	}
	var total float64
	err := uncertain.ForEachRealization(pts, maxStates, func(locs []P, prob float64) {
		var maxD float64
		for i, loc := range locs {
			if d := space.Dist(loc, centers[assign[i]]); d > maxD {
				maxD = d
			}
		}
		total += prob * maxD
	})
	return total, err
}

// EcostUnassignedNaive is the enumeration oracle for EcostUnassigned.
func EcostUnassignedNaive[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, maxStates int) (float64, error) {
	if len(centers) == 0 {
		return 0, fmt.Errorf("core: no centers")
	}
	var total float64
	err := uncertain.ForEachRealization(pts, maxStates, func(locs []P, prob float64) {
		var maxD float64
		for _, loc := range locs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := space.Dist(loc, c); d < best {
					best = d
				}
			}
			if best > maxD {
				maxD = best
			}
		}
		total += prob * maxD
	})
	return total, err
}

// EcostMonteCarlo estimates EcostAssigned (assign != nil) or EcostUnassigned
// (assign == nil) from `samples` joint realizations.
func EcostMonteCarlo[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, assign []int, samples int, rng *rand.Rand) (float64, error) {
	if len(centers) == 0 {
		return 0, fmt.Errorf("core: no centers")
	}
	if assign != nil {
		if err := validateAssignment(pts, centers, assign); err != nil {
			return 0, err
		}
	}
	if samples <= 0 {
		return 0, fmt.Errorf("core: samples = %d", samples)
	}
	var sum float64
	for s := 0; s < samples; s++ {
		var maxD float64
		for i, p := range pts {
			loc := p.Sample(rng)
			var d float64
			if assign != nil {
				d = space.Dist(loc, centers[assign[i]])
			} else {
				d = math.Inf(1)
				for _, c := range centers {
					if dd := space.Dist(loc, c); dd < d {
						d = dd
					}
				}
			}
			if d > maxD {
				maxD = d
			}
		}
		sum += maxD
	}
	return sum / float64(samples), nil
}

// MaxExpCostAssigned returns max_i E d(P_i, centers[assign[i]]), the
// max-of-expectations cost used by Wang & Zhang's 1D work. It satisfies
// MaxExpCostAssigned ≤ EcostAssigned (Jensen for max).
func MaxExpCostAssigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, assign []int) (float64, error) {
	c, err := Compile(context.Background(), space, pts, nil)
	if err != nil {
		return 0, err
	}
	pts = c.Points()
	if err := validateAssignment(pts, centers, assign); err != nil {
		return 0, err
	}
	var m float64
	for i, p := range pts {
		if e := uncertain.ExpectedDist(space, p, centers[assign[i]]); e > m {
			m = e
		}
	}
	return m, nil
}

// MaxExpCostUnassigned returns max_i min_j E d(P_i, c_j): each point takes
// the center minimizing its expected distance (which is exactly the ED
// assignment), then the max of those expectations.
func MaxExpCostUnassigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P) (float64, error) {
	c, err := Compile(context.Background(), space, pts, nil)
	if err != nil {
		return 0, err
	}
	if len(centers) == 0 {
		return 0, fmt.Errorf("core: no centers")
	}
	var m float64
	for _, p := range c.Points() {
		best := math.Inf(1)
		for _, c := range centers {
			if e := uncertain.ExpectedDist(space, p, c); e < best {
				best = e
			}
		}
		if best > m {
			m = best
		}
	}
	return m, nil
}
