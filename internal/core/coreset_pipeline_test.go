package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestSolveEuclideanWithCoreset: the large-n path must produce a valid
// result whose cost stays within the coreset slack of the direct pipeline.
func TestSolveEuclideanWithCoreset(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts, err := gen.GaussianClusters(rng, 400, 3, 2, 4, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := solveEuclidean(pts, 4, Options{Rule: RuleEP})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := solveEuclidean(pts, 4, Options{Rule: RuleEP, CoresetEps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Centers) == 0 || len(cs.Assign) != len(pts) {
		t.Fatal("malformed coreset result")
	}
	// The coreset path loses at most an additive 2·eps·r_k on the certain
	// radius; on clustered instances the cost stays comparable. Assert a
	// conservative multiplicative envelope.
	if direct.Ecost > 0 && cs.Ecost > 2*direct.Ecost {
		t.Errorf("coreset cost %g > 2× direct %g", cs.Ecost, direct.Ecost)
	}
}

func TestSolveEuclideanCoresetCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	pts, err := gen.UniformBox(rng, 200, 2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveEuclidean(pts, 3, Options{
		Rule: RuleEP, CoresetEps: 0.01, CoresetMaxSize: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Errorf("centers = %d", len(res.Centers))
	}
}
