package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestTheorem22HeterogeneousZ re-validates the restricted-assigned bounds on
// instances where z_i varies per point — the paper's general model (z is
// only the maximum). Constant-z generators could in principle mask indexing
// bugs that conflate z_i with z.
func TestTheorem22HeterogeneousZ(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		pts, err := gen.HeterogeneousZ(rng, 3+rng.Intn(3), 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		for _, tc := range []struct {
			rule  core.Rule
			bound float64
		}{
			{core.RuleED, 6},
			{core.RuleEP, 4},
		} {
			res, err := solveEuclidean(pts, k, core.Options{
				Rule: tc.rule, Solver: core.SolverGonzalez,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := bruteforce.RestrictedAssigned(euclid, pts, euclideanCandidates(pts), k, tc.rule, nil, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Cost <= 0 {
				continue
			}
			if ratio := res.Ecost / opt.Cost; ratio > tc.bound+slack {
				t.Errorf("trial %d rule %v: ratio %.4f > %g on heterogeneous z",
					trial, tc.rule, ratio, tc.bound)
			}
		}
	}
}
