package bruteforce

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

func TestForEachSubsetCounts(t *testing.T) {
	count := 0
	err := forEachSubset(5, 2, 100, func(idx []int) error {
		count++
		if len(idx) != 2 || idx[0] >= idx[1] {
			t.Fatalf("bad subset %v", idx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("C(5,2) enumerated %d subsets, want 10", count)
	}
}

func TestForEachSubsetGuards(t *testing.T) {
	if err := forEachSubset(30, 10, 1000, func([]int) error { return nil }); err == nil {
		t.Error("explosion not caught")
	}
	if err := forEachSubset(0, 1, 10, func([]int) error { return nil }); err == nil {
		t.Error("m=0 accepted")
	}
	if err := forEachSubset(3, 0, 10, func([]int) error { return nil }); err == nil {
		t.Error("k=0 accepted")
	}
	// k > m clamps rather than erroring.
	count := 0
	if err := forEachSubset(2, 5, 10, func(idx []int) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("k>m visited %d subsets, want 1", count)
	}
}

func TestUnassignedFindsObviousOptimum(t *testing.T) {
	// Two deterministic clusters; optimal 2 centers sit on the points.
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{0, 0}),
		uncertain.NewDeterministic(geom.Vec{10, 0}),
	}
	cands := []geom.Vec{{0, 0}, {10, 0}, {5, 0}}
	sol, err := Unassigned[geom.Vec](euclid, pts, cands, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Errorf("optimal cost = %g, want 0", sol.Cost)
	}
}

func TestRestrictedAssignedEuclideanMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, err := gen.GaussianClusters(rng, 3, 2, 2, 2, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cands := uncertain.AllLocations(pts)
	sol, err := RestrictedAssigned[geom.Vec](euclid, pts, cands, 2, core.RuleED, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Manual check: the reported cost matches re-evaluating the solution.
	ctx := context.Background()
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := c.EcostAssigned(ctx, sol.Centers, sol.Assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-sol.Cost) > 1e-9 {
		t.Errorf("reported %g, recomputed %g", sol.Cost, cost)
	}
	// And no singleton subset choice beats it under the same rule (spot
	// check a few random subsets).
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(len(cands)), rng.Intn(len(cands))
		if i == j {
			continue
		}
		centers := []geom.Vec{cands[i], cands[j]}
		assign, err := core.AssignCompiled(ctx, c, centers, core.RuleED, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cost < sol.Cost-1e-9 {
			t.Fatalf("random subset beats 'optimal': %g < %g", cost, sol.Cost)
		}
	}
}

func TestUnrestrictedBeatsRestricted(t *testing.T) {
	// The unrestricted optimum is ≤ any restricted optimum over the same
	// candidates (more freedom in the assignment).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		pts, err := gen.BimodalAdversarial(rng, 3, 2, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		cands := uncertain.AllLocations(pts)
		un, err := Unrestricted[geom.Vec](euclid, pts, cands, 2, 100000, 100000)
		if err != nil {
			t.Fatal(err)
		}
		re, err := RestrictedAssigned[geom.Vec](euclid, pts, cands, 2, core.RuleED, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if un.Cost > re.Cost+1e-9 {
			t.Fatalf("trial %d: unrestricted %g > restricted-ED %g", trial, un.Cost, re.Cost)
		}
		// And the unassigned optimum is ≤ the unrestricted assigned optimum.
		ua, err := Unassigned[geom.Vec](euclid, pts, cands, 2, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if ua.Cost > un.Cost+1e-9 {
			t.Fatalf("trial %d: unassigned %g > unrestricted %g", trial, ua.Cost, un.Cost)
		}
	}
}

func TestUnrestrictedAssignGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, err := gen.UniformBox(rng, 15, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cands := uncertain.AllLocations(pts)
	if _, err := Unrestricted[geom.Vec](euclid, pts, cands, 3, 1000000, 1000); err == nil {
		t.Error("3^15 assignments accepted with limit 1000")
	}
}

func TestValidationEverywhere(t *testing.T) {
	cands := []geom.Vec{{0}}
	if _, err := Unassigned[geom.Vec](euclid, nil, cands, 1, 10); err == nil {
		t.Error("Unassigned accepted empty set")
	}
	if _, err := RestrictedAssigned[geom.Vec](euclid, nil, cands, 1, core.RuleED, nil, 10); err == nil {
		t.Error("RestrictedAssigned accepted empty Euclidean set")
	}
	if _, err := Unrestricted[geom.Vec](euclid, nil, cands, 1, 10, 10); err == nil {
		t.Error("Unrestricted accepted empty set")
	}
	space, _ := metricspace.NewFinite([][]float64{{0}})
	if _, err := RestrictedAssigned[int](space, nil, []int{0}, 1, core.RuleED, []int{0}, 10); err == nil {
		t.Error("RestrictedAssigned accepted empty set")
	}
}

func TestRestrictedAssignedFiniteMetric(t *testing.T) {
	// Path metric 0-1-2; one point uniform over {0,2}; k=1. The ED-optimal
	// single center is any of the three (cost: E d = 1 at each... vertex 1
	// gives E[max] = 1; vertices 0/2 give E[max] = 0.5·0 + 0.5·2 = 1).
	space, err := metricspace.NewFinite([][]float64{
		{0, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := uncertain.NewUniform([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := RestrictedAssigned[int](space, []uncertain.Point[int]{p}, space.Points(), 1, core.RuleED, space.Points(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-1) > 1e-12 {
		t.Errorf("optimal cost = %g, want 1", sol.Cost)
	}
}
