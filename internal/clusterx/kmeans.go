package clusterx

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// KMeansResult is the output of Lloyd's algorithm.
type KMeansResult struct {
	Centers []geom.Vec
	Assign  []int
	Cost    float64 // Σ w_i·‖p_i − c(p_i)‖²
	Iters   int
}

// KMeans runs weighted k-means++ seeding followed by Lloyd iterations until
// the assignment stabilizes or maxIter rounds pass. Weights may be nil. The
// seeding and every Lloyd round check ctx and abort with ctx.Err().
func KMeans(ctx context.Context, pts []geom.Vec, weights []float64, k int, rng *rand.Rand, maxIter int) (KMeansResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(pts)
	if n == 0 {
		return KMeansResult{}, fmt.Errorf("clusterx: empty point set")
	}
	if k <= 0 {
		return KMeansResult{}, fmt.Errorf("clusterx: k = %d", k)
	}
	if weights != nil && len(weights) != n {
		return KMeansResult{}, fmt.Errorf("clusterx: %d weights for %d points", len(weights), n)
	}
	if rng == nil {
		return KMeansResult{}, fmt.Errorf("clusterx: nil rng")
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}

	// k-means++ seeding.
	centers := make([]geom.Vec, 0, k)
	centers = append(centers, pts[randIntn(rng, n)].Clone())
	d2 := make([]float64, n)
	for len(centers) < k {
		if err := ctx.Err(); err != nil {
			return KMeansResult{}, err
		}
		var total float64
		for i, p := range pts {
			best := math.Inf(1)
			for _, c := range centers {
				if d := geom.DistSq(p, c); d < best {
					best = d
				}
			}
			d2[i] = w(i) * best
			total += d2[i]
		}
		if total == 0 {
			centers = append(centers, pts[randIntn(rng, n)].Clone())
			continue
		}
		r := rng.Float64() * total
		pick := n - 1
		acc := 0.0
		for i := range d2 {
			acc += d2[i]
			if r < acc {
				pick = i
				break
			}
		}
		centers = append(centers, pts[pick].Clone())
	}

	assign := make([]int, n)
	var iters int
	for iters = 0; iters < maxIter; iters++ {
		if err := ctx.Err(); err != nil {
			return KMeansResult{}, err
		}
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := geom.DistSq(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iters > 0 {
			break
		}
		// Recompute weighted centroids.
		dim := pts[0].Dim()
		sums := make([]geom.Vec, len(centers))
		mass := make([]float64, len(centers))
		for c := range sums {
			sums[c] = geom.NewVec(dim)
		}
		for i, p := range pts {
			sums[assign[i]].AxpyInPlace(w(i), p)
			mass[assign[i]] += w(i)
		}
		for c := range centers {
			if mass[c] > 0 {
				centers[c] = sums[c].ScaleInPlace(1 / mass[c])
			}
		}
	}
	var cost float64
	for i, p := range pts {
		cost += w(i) * geom.DistSq(p, centers[assign[i]])
	}
	return KMeansResult{Centers: centers, Assign: assign, Cost: cost, Iters: iters}, nil
}

// Variance returns Var(P) = E‖X − P̄‖² of one uncertain Euclidean point.
func Variance(p uncertain.Point[geom.Vec]) float64 {
	bar := uncertain.ExpectedPoint(p)
	var v float64
	for j, loc := range p.Locs {
		v += p.Probs[j] * geom.DistSq(loc, bar)
	}
	return v
}

// EMeansCostAssigned returns the exact uncertain k-means cost
// E[Σ_i ‖X_i − a_i‖²] = Σ_i (‖P̄_i − a_i‖² + Var_i) — the bias–variance
// identity that makes the k-means reduction exact.
func EMeansCostAssigned(pts []uncertain.Point[geom.Vec], centers []geom.Vec, assign []int) (float64, error) {
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
		total += geom.DistSq(uncertain.ExpectedPoint(p), centers[a]) + Variance(p)
	}
	return total, nil
}

// SolveUncertainKMeans solves the uncertain k-means by the EXACT reduction:
// Lloyd's algorithm on the expected points P̄ optimizes the uncertain
// objective up to the additive constant Σ Var_i (which no center choice can
// affect). Returns centers, assignment, the exact uncertain cost, and the
// irreducible variance floor. Lloyd's rounds honor ctx (see KMeans).
func SolveUncertainKMeans(ctx context.Context, pts []uncertain.Point[geom.Vec], k int, rng *rand.Rand, maxIter int) ([]geom.Vec, []int, float64, float64, error) {
	if err := uncertain.ValidateSet(pts); err != nil {
		return nil, nil, 0, 0, err
	}
	bars := uncertain.ExpectedPoints(pts)
	res, err := KMeans(ctx, bars, nil, k, rng, maxIter)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var floor float64
	for _, p := range pts {
		floor += Variance(p)
	}
	cost, err := EMeansCostAssigned(pts, res.Centers, res.Assign)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return res.Centers, res.Assign, cost, floor, nil
}
