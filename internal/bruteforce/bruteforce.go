// Package bruteforce computes optimal solutions of the uncertain k-center
// problem variants by exhaustive search over a candidate center set (and,
// for the unrestricted assigned version, over assignments). It exists to
// anchor the empirical approximation-ratio experiments: the theorems bound
// algorithm cost against the continuous optimum, and the discrete optimum
// computed here is an upper bound on that optimum, so measured ratios are
// lower bounds on true ratios and the theorem bounds must still hold.
//
// In a finite metric space with candidates = all space points the discrete
// optimum IS the true optimum and the checks are exact.
//
// Each oracle compiles its point set once (core.Compile validates it) and
// evaluates every center set on the compiled instance, whose memoized EP
// and OC surrogates the assignment rules share across subsets.
//
// Everything here is exponential; explicit limits guard against misuse.
package bruteforce

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// Solution is an optimal center set with its cost (and assignment when the
// problem version has one).
type Solution[P any] struct {
	Centers []P
	Assign  []int // nil for the unassigned version
	Cost    float64
}

// forEachSubset enumerates all k-subsets of {0..m-1}, calling fn with a
// reused index slice. It returns an error if the count exceeds maxSubsets.
func forEachSubset(m, k, maxSubsets int, fn func(idx []int) error) error {
	if k <= 0 || m <= 0 {
		return fmt.Errorf("bruteforce: invalid subset shape m=%d k=%d", m, k)
	}
	if k > m {
		k = m
	}
	if c := binomial(m, k); c < 0 || c > maxSubsets {
		return fmt.Errorf("bruteforce: C(%d,%d) exceeds limit %d", m, k, maxSubsets)
	}
	idx := make([]int, k)
	var rec func(pos, from int) error
	rec = func(pos, from int) error {
		if pos == k {
			return fn(idx)
		}
		for c := from; c <= m-(k-pos); c++ {
			idx[pos] = c
			if err := rec(pos+1, c+1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0)
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c < 0 || c > 1<<40 {
			return -1
		}
	}
	return c
}

func selectCenters[P any](candidates []P, idx []int) []P {
	out := make([]P, len(idx))
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}

// RestrictedAssigned finds the candidate k-subset minimizing the exact
// assigned expected cost under the given assignment rule, re-deriving the
// assignment per center set as the problem definition requires.
// ruleCandidates is the surrogate search space of RuleOC outside Euclidean
// space; Euclidean callers pass nil, which selects the continuous 1-center,
// and may use all three rules.
func RestrictedAssigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], candidates []P, k int, rule core.Rule, ruleCandidates []P, maxSubsets int) (Solution[P], error) {
	ctx := context.Background()
	c, err := core.Compile(ctx, space, pts, ruleCandidates)
	if err != nil {
		return Solution[P]{}, err
	}
	best := Solution[P]{Cost: math.Inf(1)}
	err = forEachSubset(len(candidates), k, maxSubsets, func(idx []int) error {
		centers := selectCenters(candidates, idx)
		assign, err := core.AssignCompiled(ctx, c, centers, rule, ruleCandidates, 1)
		if err != nil {
			return err
		}
		cost, err := c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil {
			return err
		}
		if cost < best.Cost {
			best = Solution[P]{Centers: centers, Assign: assign, Cost: cost}
		}
		return nil
	})
	return best, err
}

// Unassigned finds the candidate k-subset minimizing the exact unassigned
// expected cost.
func Unassigned[P any](space metricspace.Space[P], pts []uncertain.Point[P], candidates []P, k, maxSubsets int) (Solution[P], error) {
	ctx := context.Background()
	c, err := core.Compile(ctx, space, pts, nil)
	if err != nil {
		return Solution[P]{}, err
	}
	best := Solution[P]{Cost: math.Inf(1)}
	err = forEachSubset(len(candidates), k, maxSubsets, func(idx []int) error {
		centers := selectCenters(candidates, idx)
		cost, err := c.EcostUnassigned(ctx, centers, 1)
		if err != nil {
			return err
		}
		if cost < best.Cost {
			best = Solution[P]{Centers: centers, Cost: cost}
		}
		return nil
	})
	return best, err
}

// Unrestricted finds the candidate k-subset AND assignment minimizing the
// exact assigned expected cost — the unrestricted assigned optimum over the
// candidate set. The assignment search is k^n; maxAssign guards it.
func Unrestricted[P any](space metricspace.Space[P], pts []uncertain.Point[P], candidates []P, k, maxSubsets, maxAssign int) (Solution[P], error) {
	ctx := context.Background()
	c, err := core.Compile(ctx, space, pts, nil)
	if err != nil {
		return Solution[P]{}, err
	}
	n := len(pts)
	kk := k
	if kk > len(candidates) {
		kk = len(candidates)
	}
	total := 1
	for i := 0; i < n; i++ {
		total *= kk
		if total > maxAssign || total < 0 {
			return Solution[P]{}, fmt.Errorf("bruteforce: %d^%d assignments exceed limit %d", kk, n, maxAssign)
		}
	}
	best := Solution[P]{Cost: math.Inf(1)}
	err = forEachSubset(len(candidates), k, maxSubsets, func(idx []int) error {
		centers := selectCenters(candidates, idx)
		assign := make([]int, n)
		for {
			cost, err := c.EcostAssigned(ctx, centers, assign, 1)
			if err != nil {
				return err
			}
			if cost < best.Cost {
				best = Solution[P]{
					Centers: centers,
					Assign:  append([]int(nil), assign...),
					Cost:    cost,
				}
			}
			// Odometer over assignments.
			p := 0
			for p < n {
				assign[p]++
				if assign[p] < len(centers) {
					break
				}
				assign[p] = 0
				p++
			}
			if p == n {
				return nil
			}
		}
	})
	return best, err
}
