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
// The compiled instance is the only way into these kernels: Compile
// validates, prunes and flattens a point set once, and the assignment
// rules, both E-costs, the surrogate pipeline and the local search run on
// the *Compiled it returns. No function here compiles on a caller's
// behalf, so a caller that evaluates many center sets pays for one
// compilation. Only the enumeration and Monte-Carlo oracles
// (EcostAssignedNaive, EcostUnassignedNaive, EcostMonteCarlo) take raw
// point sets, because tests hold the compiled kernels to them.
//
// The literature uses a second cost convention, max-of-expectations
// (Wang & Zhang 2015); Compiled.MaxExpCostAssigned and
// MaxExpCostUnassigned implement it, and the documented inequality
// MaxExpCost ≤ Ecost is property-tested.
package core

import (
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

// EcostAssignedNaive is the exponential enumeration oracle for
// Compiled.EcostAssigned, used to validate the fast evaluator in tests. It
// refuses joint supports above maxStates.
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

// EcostUnassignedNaive is the enumeration oracle for
// Compiled.EcostUnassigned.
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

// EcostMonteCarlo estimates Compiled.EcostAssigned (assign != nil) or
// Compiled.EcostUnassigned (assign == nil) from `samples` joint
// realizations.
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
func (c *Compiled[P]) MaxExpCostAssigned(centers []P, assign []int) (float64, error) {
	if err := validateAssignment(c.pts, centers, assign); err != nil {
		return 0, err
	}
	var m float64
	for i, p := range c.pts {
		if e := uncertain.ExpectedDist(c.space, p, centers[assign[i]]); e > m {
			m = e
		}
	}
	return m, nil
}

// MaxExpCostUnassigned returns max_i min_j E d(P_i, c_j): each point takes
// the center minimizing its expected distance (which is exactly the ED
// assignment), then the max of those expectations.
func (c *Compiled[P]) MaxExpCostUnassigned(centers []P) (float64, error) {
	if len(centers) == 0 {
		return 0, fmt.Errorf("core: no centers")
	}
	var m float64
	for _, p := range c.pts {
		best := math.Inf(1)
		for _, ctr := range centers {
			if e := uncertain.ExpectedDist(c.space, p, ctr); e < best {
				best = e
			}
		}
		if best > m {
			m = best
		}
	}
	return m, nil
}
