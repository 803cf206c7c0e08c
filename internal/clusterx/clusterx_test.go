package clusterx

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

var euclid = metricspace.Euclidean{}

func TestMedianCost(t *testing.T) {
	pts := []geom.Vec{{0}, {10}}
	centers := []geom.Vec{{0}}
	if got := MedianCost[geom.Vec](euclid, pts, nil, centers); got != 10 {
		t.Errorf("cost = %g, want 10", got)
	}
	if got := MedianCost[geom.Vec](euclid, pts, []float64{1, 0.5}, centers); got != 5 {
		t.Errorf("weighted cost = %g, want 5", got)
	}
	if got := MedianCost[geom.Vec](euclid, nil, nil, centers); got != 0 {
		t.Errorf("empty cost = %g", got)
	}
}

func TestMedianCostPanicsNoCenters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MedianCost[geom.Vec](euclid, []geom.Vec{{0}}, nil, nil)
}

func TestLocalSearchKMedianValidation(t *testing.T) {
	pts := []geom.Vec{{0}}
	if _, _, err := LocalSearchKMedian[geom.Vec](context.Background(), euclid, nil, nil, pts, 1, 10); err == nil {
		t.Error("empty points accepted")
	}
	if _, _, err := LocalSearchKMedian[geom.Vec](context.Background(), euclid, pts, nil, nil, 1, 10); err == nil {
		t.Error("no candidates accepted")
	}
	if _, _, err := LocalSearchKMedian[geom.Vec](context.Background(), euclid, pts, nil, pts, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := LocalSearchKMedian[geom.Vec](context.Background(), euclid, pts, []float64{1, 2}, pts, 1, 10); err == nil {
		t.Error("weight length mismatch accepted")
	}
}

func TestLocalSearchKMedianTwoClusters(t *testing.T) {
	pts := []geom.Vec{{0}, {1}, {2}, {100}, {101}, {102}}
	idx, cost, err := LocalSearchKMedian[geom.Vec](context.Background(), euclid, pts, nil, pts, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("centers = %v", idx)
	}
	// Optimal: medians at 1 and 101, cost 2+2 = 4.
	if math.Abs(cost-4) > 1e-9 {
		t.Errorf("cost = %g, want 4", cost)
	}
}

// TestLocalSearchNearOptimal cross-checks local search against exhaustive
// candidate-subset search on small instances: within factor 5 always
// (the guarantee), and usually equal.
func TestLocalSearchNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(6)
		pts := make([]geom.Vec, n)
		for i := range pts {
			pts[i] = geom.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		k := 1 + rng.Intn(2)
		_, lsCost, err := LocalSearchKMedian[geom.Vec](context.Background(), euclid, pts, nil, pts, k, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over candidate subsets.
		best := math.Inf(1)
		var rec func(pos, from int, cur []geom.Vec)
		rec = func(pos, from int, cur []geom.Vec) {
			if pos == k {
				if c := MedianCost[geom.Vec](euclid, pts, nil, cur); c < best {
					best = c
				}
				return
			}
			for c := from; c < n; c++ {
				rec(pos+1, c+1, append(cur, pts[c]))
			}
		}
		rec(0, 0, nil)
		if lsCost > 5*best+1e-9 {
			t.Fatalf("trial %d: local search %g > 5×OPT %g", trial, lsCost, best)
		}
	}
}

func TestEMedianCostsSeparability(t *testing.T) {
	// The assigned expected median cost must equal the enumeration oracle.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		pts, err := gen.UniformBox(rng, 1+rng.Intn(4), 1+rng.Intn(3), 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		centers := make([]geom.Vec, k)
		for i := range centers {
			centers[i] = geom.Vec{rng.Float64() * 10, rng.Float64() * 10}
		}
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		fast, err := EMedianCostAssigned[geom.Vec](euclid, pts, centers, assign)
		if err != nil {
			t.Fatal(err)
		}
		var slow float64
		err = uncertain.ForEachRealization(pts, 1<<20, func(locs []geom.Vec, prob float64) {
			var sum float64
			for i, loc := range locs {
				sum += geom.Dist(loc, centers[assign[i]])
			}
			slow += prob * sum
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-9*(1+slow) {
			t.Fatalf("trial %d: separable %g vs enumeration %g", trial, fast, slow)
		}
	}
}

func TestSolveUncertainKMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, err := gen.GaussianClusters(rng, 12, 3, 2, 2, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, uncertain.AllLocations(pts))
	if err != nil {
		t.Fatal(err)
	}
	centers, assign, cost, err := SolveUncertainKMedian(ctx, c, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 2 || len(assign) != len(pts) {
		t.Fatal("malformed result")
	}
	// Recompute cost.
	c2, err := EMedianCostAssigned[geom.Vec](euclid, pts, centers, assign)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-c2) > 1e-9 {
		t.Errorf("reported %g, recomputed %g", cost, c2)
	}
}

func TestKMeansBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := []geom.Vec{{0, 0}, {0.2, 0}, {10, 10}, {10.2, 10}}
	res, err := KMeans(context.Background(), pts, nil, 2, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect clustering: cost = 2·(0.1² + 0.1²) = 0.04.
	if res.Cost > 0.05 {
		t.Errorf("cost = %g, want ≈0.04", res.Cost)
	}
	if res.Assign[0] == res.Assign[2] {
		t.Error("far points in the same cluster")
	}
}

func TestKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := []geom.Vec{{0}}
	if _, err := KMeans(context.Background(), nil, nil, 1, rng, 10); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := KMeans(context.Background(), pts, nil, 0, rng, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(context.Background(), pts, []float64{1, 2}, 1, rng, 10); err == nil {
		t.Error("weight mismatch accepted")
	}
	if _, err := KMeans(context.Background(), pts, nil, 1, nil, 10); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestVariance(t *testing.T) {
	p, err := uncertain.New([]geom.Vec{{0}, {2}}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Mean 1, Var = 0.5·1 + 0.5·1 = 1.
	if got := Variance(p); math.Abs(got-1) > 1e-12 {
		t.Errorf("Variance = %g, want 1", got)
	}
	if got := Variance(uncertain.NewDeterministic(geom.Vec{5})); got != 0 {
		t.Errorf("Variance of deterministic point = %g", got)
	}
}

// TestKMeansBiasVarianceIdentity property-tests the exact decomposition
// E‖X − c‖² = ‖P̄ − c‖² + Var against the enumeration oracle.
func TestKMeansBiasVarianceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		pts, err := gen.UniformBox(rng, 1+rng.Intn(4), 1+rng.Intn(3), 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		centers := make([]geom.Vec, k)
		for i := range centers {
			centers[i] = geom.Vec{rng.Float64() * 10, rng.Float64() * 10}
		}
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		fast, err := EMeansCostAssigned(pts, centers, assign)
		if err != nil {
			t.Fatal(err)
		}
		var slow float64
		err = uncertain.ForEachRealization(pts, 1<<20, func(locs []geom.Vec, prob float64) {
			var sum float64
			for i, loc := range locs {
				sum += geom.DistSq(loc, centers[assign[i]])
			}
			slow += prob * sum
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-9*(1+slow) {
			t.Fatalf("trial %d: identity %g vs enumeration %g", trial, fast, slow)
		}
	}
}

func TestSolveUncertainKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts, err := gen.GaussianClusters(rng, 20, 3, 2, 2, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	centers, assign, cost, floor, err := SolveUncertainKMeans(context.Background(), pts, 2, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 2 || len(assign) != len(pts) {
		t.Fatal("malformed result")
	}
	if cost < floor-1e-9 {
		t.Errorf("cost %g below its variance floor %g", cost, floor)
	}
	// The reduction is exact: no alternative center set may beat the Lloyd
	// result by more than Lloyd's own local-optimality slack. Spot-check
	// random perturbations of the centers.
	for trial := 0; trial < 20; trial++ {
		pert := make([]geom.Vec, len(centers))
		for i, c := range centers {
			pert[i] = c.Clone()
			pert[i][rng.Intn(2)] += rng.NormFloat64() * 0.01
		}
		// Re-assign optimally for the perturbed centers.
		passign := make([]int, len(pts))
		bars := uncertain.ExpectedPoints(pts)
		for i, b := range bars {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range pert {
				if d := geom.DistSq(b, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			passign[i] = best
		}
		pcost, err := EMeansCostAssigned(pts, pert, passign)
		if err != nil {
			t.Fatal(err)
		}
		if pcost < cost-1e-6*(1+cost) {
			t.Fatalf("tiny perturbation improved a converged Lloyd solution: %g < %g", pcost, cost)
		}
	}
}
