// Package clusterx implements the paper's announced future-work extensions
// ("we intend to use our approach to study the k-median and the k-means
// problems", §4): the surrogate reduction applied to the uncertain k-median
// and uncertain k-means objectives.
//
// Unlike the k-center cost, the sum-objectives are SEPARABLE across points:
//
//	E[Σ_i d(X_i, a_i)]  = Σ_i E d(P_i, a_i)            (k-median)
//	E[Σ_i d(X_i, a_i)²] = Σ_i (‖P̄_i − a_i‖² + Var_i)  (k-means, Euclidean)
//
// so both expected costs are computable exactly in O(Nk), and the k-means
// identity makes the reduction to certain k-means on the expected points
// EXACT up to the additive constant Σ Var_i (a classical fact, property-
// tested in this package). For k-median, the 1-center surrogate P̃ plays
// the role it plays in the paper: replacing each point by the minimizer of
// its own expected distance loses at most a constant factor.
//
// Substrates implemented here: weighted discrete k-median by local search
// (single-swap, the Arya et al. 5-approximation scheme) and Euclidean
// k-means by k-means++ seeding plus Lloyd iterations.
//
// SolveUncertainKMedian takes the *core.Compiled its caller compiled once
// and reads the 1-center surrogates from the instance's memo; the k-means
// reduction needs only the expected points. Every solver takes a context.
package clusterx

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// MedianCost returns Σ_i w_i · min_{c ∈ centers} d(p_i, c). Weights may be
// nil (all 1). It panics if centers is empty and pts is not.
func MedianCost[P any](space metricspace.Space[P], pts []P, weights []float64, centers []P) float64 {
	var total float64
	for i, p := range pts {
		best := math.Inf(1)
		for _, c := range centers {
			if d := space.Dist(p, c); d < best {
				best = d
			}
		}
		if math.IsInf(best, 1) {
			panic("clusterx: MedianCost with no centers")
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		total += w * best
	}
	return total
}

// LocalSearchKMedian solves the discrete weighted k-median over a candidate
// set by single-swap local search: starting from a greedy seed, repeatedly
// apply the best improving swap (center out, candidate in) until no swap
// improves the cost by more than (1 − 1/steps) — the classical scheme with
// a 5-approximation guarantee for exact improving swaps. It returns the
// chosen candidate indices and their cost. maxIter bounds the swap rounds.
// The greedy seeding and every swap round check ctx and abort with
// ctx.Err().
func LocalSearchKMedian[P any](ctx context.Context, space metricspace.Space[P], pts []P, weights []float64, candidates []P, k, maxIter int) ([]int, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(pts) == 0 {
		return nil, 0, fmt.Errorf("clusterx: empty point set")
	}
	if len(candidates) == 0 {
		return nil, 0, fmt.Errorf("clusterx: no candidates")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("clusterx: k = %d", k)
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, 0, fmt.Errorf("clusterx: %d weights for %d points", len(weights), len(pts))
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	// Greedy seed: repeatedly add the candidate reducing cost the most.
	chosen := make([]int, 0, k)
	inSet := make([]bool, len(candidates))
	assignD := make([]float64, len(pts))
	for i := range assignD {
		assignD[i] = math.Inf(1)
	}
	for len(chosen) < k {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		bestC, bestGain := -1, math.Inf(-1)
		for c := range candidates {
			if inSet[c] {
				continue
			}
			gain := 0.0
			for i, p := range pts {
				if d := space.Dist(p, candidates[c]); d < assignD[i] {
					w := 1.0
					if weights != nil {
						w = weights[i]
					}
					gain += w * (assignD[i] - d)
				}
			}
			if gain > bestGain {
				bestC, bestGain = c, gain
			}
		}
		// First pick: Inf distances make every candidate infinite-gain;
		// fall back to minimizing absolute cost.
		if len(chosen) == 0 {
			bestC = 0
			bestCost := math.Inf(1)
			for c := range candidates {
				cost := MedianCost(space, pts, weights, []P{candidates[c]})
				if cost < bestCost {
					bestC, bestCost = c, cost
				}
			}
		}
		chosen = append(chosen, bestC)
		inSet[bestC] = true
		for i, p := range pts {
			if d := space.Dist(p, candidates[bestC]); d < assignD[i] {
				assignD[i] = d
			}
		}
	}

	sel := func(idx []int) []P {
		out := make([]P, len(idx))
		for i, c := range idx {
			out[i] = candidates[c]
		}
		return out
	}
	cost := MedianCost(space, pts, weights, sel(chosen))
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		improved := false
		for pos := 0; pos < len(chosen) && !improved; pos++ {
			old := chosen[pos]
			for c := range candidates {
				if inSet[c] {
					continue
				}
				chosen[pos] = c
				if newCost := MedianCost(space, pts, weights, sel(chosen)); newCost < cost*(1-1e-9)-1e-15 {
					inSet[old] = false
					inSet[c] = true
					cost = newCost
					improved = true
					break
				}
				chosen[pos] = old
			}
		}
		if !improved {
			break
		}
	}
	return chosen, cost, nil
}

// EMedianCostAssigned returns the exact uncertain k-median cost
// Σ_i E d(P_i, centers[assign[i]]) — separable, O(Nk) overall.
func EMedianCostAssigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], centers []P, assign []int) (float64, error) {
	if len(centers) == 0 {
		return 0, fmt.Errorf("clusterx: no centers")
	}
	if len(assign) != len(pts) {
		return 0, fmt.Errorf("clusterx: assignment length %d, want %d", len(assign), len(pts))
	}
	var total float64
	for i, p := range pts {
		if err := p.Validate(); err != nil {
			return 0, fmt.Errorf("point %d: %w", i, err)
		}
		a := assign[i]
		if a < 0 || a >= len(centers) {
			return 0, fmt.Errorf("clusterx: assignment[%d] = %d out of range", i, a)
		}
		total += uncertain.ExpectedDist(space, p, centers[a])
	}
	return total, nil
}

// SolveUncertainKMedian runs the surrogate reduction for the uncertain
// k-median on a compiled instance: replace each point by its 1-center P̃
// over c.CandidatesOrLocations() (the instance's memoized 1-center
// surrogates), solve the deterministic k-median on the surrogates by local
// search, and assign by expected distance. Returned cost is the exact
// assigned expected k-median cost. The per-point stages (surrogate
// construction and the ED assignment) run on `workers` goroutines over
// disjoint point indices, bit-identical to the sequential run, and every
// stage honors ctx.
func SolveUncertainKMedian[P any](ctx context.Context, c *core.Compiled[P], k, workers int) ([]P, []int, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	candidates := c.CandidatesOrLocations()
	surr, err := c.Surrogates(ctx, core.SurrogateOneCenter, candidates, workers)
	if err != nil {
		return nil, nil, 0, err
	}
	idx, _, err := LocalSearchKMedian(ctx, c.Space(), surr, nil, candidates, k, 100)
	if err != nil {
		return nil, nil, 0, err
	}
	centers := make([]P, len(idx))
	for i, j := range idx {
		centers[i] = candidates[j]
	}
	assign, err := core.AssignCompiled(ctx, c, centers, core.RuleED, nil, workers)
	if err != nil {
		return nil, nil, 0, err
	}
	cost, err := EMedianCostAssigned(c.Space(), c.Points(), centers, assign)
	if err != nil {
		return nil, nil, 0, err
	}
	return centers, assign, cost, nil
}

// randIntn is a tiny indirection so k-means++ can be seeded in tests.
func randIntn(rng *rand.Rand, n int) int { return rng.Intn(n) }
