package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// lsOpts caps the local search at 50 swap rounds.
var lsOpts = core.LocalSearchOptions{MaxIter: 50}

func TestUnassignedLocalSearchValidation(t *testing.T) {
	ctx := context.Background()
	pts := []uncertain.Point[geom.Vec]{uncertain.NewDeterministic(geom.Vec{0})}
	cands := []geom.Vec{{0}}
	if _, err := core.Compile[geom.Vec](ctx, euclid, nil, cands); err == nil {
		t.Error("empty set accepted")
	}
	if _, _, err := core.SolveUnassignedLSCompiled[geom.Vec](ctx, nil, 1, lsOpts); err == nil {
		t.Error("nil compiled instance accepted")
	}
	if _, _, err := core.SolveUnassignedLSCompiled(ctx, compile(t, euclid, pts, cands), 0, lsOpts); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestUnassignedLocalSearchNearOptimal compares against the brute-force
// unassigned optimum over the same candidates on small instances.
func TestUnassignedLocalSearchNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	worst := 1.0
	for trial := 0; trial < 15; trial++ {
		var pts []uncertain.Point[geom.Vec]
		var err error
		if trial%2 == 0 {
			pts, err = gen.GaussianClusters(rng, 3+rng.Intn(3), 2, 2, 2, 1, 0.5)
		} else {
			pts, err = gen.BimodalAdversarial(rng, 3+rng.Intn(3), 2, 2, 20)
		}
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		cands := uncertain.AllLocations(pts)
		_, lsCost, err := core.SolveUnassignedLSCompiled(context.Background(), compile(t, euclid, pts, cands), k, lsOpts)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := bruteforce.Unassigned[geom.Vec](euclid, pts, cands, k, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Cost <= 0 {
			if lsCost > 1e-9 {
				t.Fatalf("trial %d: OPT=0 but local search %g", trial, lsCost)
			}
			continue
		}
		ratio := lsCost / opt.Cost
		if ratio < 1-1e-9 {
			t.Fatalf("trial %d: local search %g beat the optimum %g", trial, lsCost, opt.Cost)
		}
		if ratio > worst {
			worst = ratio
		}
		// Single-swap local optima of k-center-style objectives are within a
		// small constant in practice; flag anything worse than 3x as a bug.
		if ratio > 3 {
			t.Fatalf("trial %d: local search ratio %.3f", trial, ratio)
		}
	}
	t.Logf("worst local-search/optimum ratio over trials: %.4f", worst)
}

// TestUnassignedLocalSearchBeatsPipelineCost: the local search specifically
// optimizes the unassigned cost, so it should never be worse than the
// pipeline centers it was seeded from (snapped to the same candidate set).
func TestUnassignedLocalSearchImprovesOnSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 10; trial++ {
		pts, err := gen.BimodalAdversarial(rng, 8, 2, 2, 20)
		if err != nil {
			t.Fatal(err)
		}
		// Candidate parity with the pipeline: locations AND expected points,
		// since the pipeline's centers are unconstrained expected points.
		cands := euclideanCandidates(pts)
		_, lsCost, err := core.SolveUnassignedLSCompiled(context.Background(), compile(t, euclid, pts, cands), 2, lsOpts)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := solveEuclidean(pts, 2, core.Options{Rule: core.RuleEP})
		if err != nil {
			t.Fatal(err)
		}
		// The pipeline's centers are unconstrained (not snapped), so allow a
		// tiny slack; the local search should still win or tie on the
		// unassigned objective for bimodal instances.
		if lsCost > pipe.EcostUnassigned*1.25+1e-9 {
			t.Errorf("trial %d: local search %g much worse than pipeline unassigned %g",
				trial, lsCost, pipe.EcostUnassigned)
		}
	}
}

func TestUnassignedLocalSearchOnFiniteMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	space, pts, k := finiteInstance(t, rng)
	centers, cost, err := core.SolveUnassignedLSCompiled(context.Background(), compile(t, space, pts, space.Points()), k, lsOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > k {
		t.Fatalf("centers = %v", centers)
	}
	opt, err := bruteforce.Unassigned[int](space, pts, space.Points(), k, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost > 0 && cost/opt.Cost > 3 {
		t.Errorf("finite-metric local search ratio %.3f", cost/opt.Cost)
	}
}
