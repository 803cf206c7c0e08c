package core_test

// Theorem-bound tests: every approximation factor in Table 1 is validated
// empirically. The reference optimum is the brute-force optimum over a
// discrete candidate set (all locations plus all expected points); since
// restricting centers can only increase the optimum, measured ratios are
// lower bounds on the true ratios, so every theorem bound must hold for
// them as well. On finite metric spaces the candidate set is the whole
// space and the checks are exact.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

var euclid = metricspace.Euclidean{}

const slack = 1e-9

// solveEuclidean compiles a Euclidean point set and runs the unified
// pipeline on it.
func solveEuclidean(pts []uncertain.Point[geom.Vec], k int, opts core.Options) (core.Result[geom.Vec], error) {
	ctx := context.Background()
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
	if err != nil {
		return core.Result[geom.Vec]{}, err
	}
	return core.SolveCompiled(ctx, c, k, opts)
}

// solveMetric compiles a finite-metric point set over cands and runs the
// unified pipeline on it with 1-center surrogates, the only kind that
// exists outside Euclidean space.
func solveMetric(space *metricspace.Finite, pts []uncertain.Point[int], cands []int, k int, opts core.Options) (core.Result[int], error) {
	ctx := context.Background()
	c, err := core.Compile[int](ctx, space, pts, cands)
	if err != nil {
		return core.Result[int]{}, err
	}
	opts.Surrogate = core.SurrogateOneCenter
	return core.SolveCompiled(ctx, c, k, opts)
}

// compile is core.Compile with a background context, failing the test on
// error.
func compile[P any](t testing.TB, space metricspace.Space[P], pts []uncertain.Point[P], cands []P) *core.Compiled[P] {
	t.Helper()
	c, err := core.Compile(context.Background(), space, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// euclideanCandidates returns the discrete candidate set used by the
// brute-force reference: every location plus every expected point.
func euclideanCandidates(pts []uncertain.Point[geom.Vec]) []geom.Vec {
	return append(uncertain.AllLocations(pts), uncertain.ExpectedPoints(pts)...)
}

func smallEuclidean(t testing.TB, rng *rand.Rand, trial int) ([]uncertain.Point[geom.Vec], int) {
	t.Helper()
	n := 2 + rng.Intn(4)
	z := 1 + rng.Intn(3)
	var pts []uncertain.Point[geom.Vec]
	var err error
	if trial%3 == 0 {
		pts, err = gen.BimodalAdversarial(rng, n, max(z, 2), 2, 20)
	} else {
		pts, err = gen.GaussianClusters(rng, n, z, 2, 2, 1.0, 0.5)
	}
	if err != nil {
		t.Fatal(err)
	}
	k := 1 + rng.Intn(2)
	return pts, k
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestTheorem22 validates the restricted assigned bounds: 5+ε under ED and
// 3+ε under EP (and the Gonzalez specializations 6 and 4).
func TestTheorem22(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	for trial := 0; trial < 25; trial++ {
		pts, k := smallEuclidean(t, rng, trial)
		cands := euclideanCandidates(pts)
		for _, tc := range []struct {
			rule   core.Rule
			solver core.Solver
			factor func(eps float64) float64
		}{
			{core.RuleED, core.SolverEps, func(e float64) float64 { return 5 + e }},
			{core.RuleEP, core.SolverEps, func(e float64) float64 { return 3 + e }},
			{core.RuleED, core.SolverGonzalez, func(float64) float64 { return 6 }},
			{core.RuleEP, core.SolverGonzalez, func(float64) float64 { return 4 }},
		} {
			res, err := solveEuclidean(pts, k, core.Options{
				Surrogate: core.SurrogateExpectedPoint,
				Rule:      tc.rule,
				Solver:    tc.solver,
				Eps:       0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := bruteforce.RestrictedAssigned[geom.Vec](euclid, pts, cands, k, tc.rule, nil, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Cost <= 0 {
				continue // degenerate zero-cost instance
			}
			bound := tc.factor(res.EffectiveEps)
			if ratio := res.Ecost / opt.Cost; ratio > bound+slack {
				t.Errorf("trial %d rule=%v solver=%v: ratio %.4f > bound %.2f",
					trial, tc.rule, tc.solver, ratio, bound)
			}
		}
	}
}

// TestTheorem24And25 validates the unrestricted assigned bounds in Euclidean
// space: 5+ε under ED and 3+ε under EP (4 and 6 for Gonzalez per Table 1).
func TestTheorem24And25(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(3) // keep k^n small
		z := 1 + rng.Intn(2)
		pts, err := gen.GaussianClusters(rng, n, z, 2, 2, 1.0, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 0 {
			pts, err = gen.BimodalAdversarial(rng, n, 2, 2, 20)
			if err != nil {
				t.Fatal(err)
			}
		}
		k := 1 + rng.Intn(2)
		cands := euclideanCandidates(pts)
		opt, err := bruteforce.Unrestricted[geom.Vec](euclid, pts, cands, k, 2_000_000, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Cost <= 0 {
			continue
		}
		for _, tc := range []struct {
			rule   core.Rule
			solver core.Solver
			factor func(eps float64) float64
		}{
			{core.RuleED, core.SolverEps, func(e float64) float64 { return 5 + e }},
			{core.RuleEP, core.SolverEps, func(e float64) float64 { return 3 + e }},
			{core.RuleED, core.SolverGonzalez, func(float64) float64 { return 6 }},
			{core.RuleEP, core.SolverGonzalez, func(float64) float64 { return 4 }},
		} {
			res, err := solveEuclidean(pts, k, core.Options{
				Surrogate: core.SurrogateExpectedPoint,
				Rule:      tc.rule,
				Solver:    tc.solver,
				Eps:       0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			bound := tc.factor(res.EffectiveEps)
			if ratio := res.Ecost / opt.Cost; ratio > bound+slack {
				t.Errorf("trial %d rule=%v solver=%v: unrestricted ratio %.4f > bound %.2f",
					trial, tc.rule, tc.solver, ratio, bound)
			}
		}
	}
}

// finiteInstance builds a small random finite metric space with uncertain
// points over its vertices.
func finiteInstance(t testing.TB, rng *rand.Rand) (*metricspace.Finite, []uncertain.Point[int], int) {
	t.Helper()
	m := 6 + rng.Intn(5)
	vecs := make([]geom.Vec, m)
	for i := range vecs {
		vecs[i] = geom.Vec{rng.Float64() * 10, rng.Float64() * 10}
	}
	space := metricspace.FromPoints[geom.Vec](euclid, vecs)
	n := 2 + rng.Intn(3)
	z := 1 + rng.Intn(3)
	pts, err := gen.OnVertices(rng, space, n, z)
	if err != nil {
		t.Fatal(err)
	}
	k := 1 + rng.Intn(2)
	return space, pts, k
}

// TestTheorem26And27 validates the general-metric unrestricted bounds:
// 7+2ε under ED and 5+2ε under OC. On a finite space with all points as
// candidates the brute-force optimum is exact, so these checks are exact.
func TestTheorem26And27(t *testing.T) {
	rng := rand.New(rand.NewSource(260))
	for trial := 0; trial < 15; trial++ {
		space, pts, k := finiteInstance(t, rng)
		cands := space.Points()
		opt, err := bruteforce.Unrestricted[int](space, pts, cands, k, 2_000_000, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Cost <= 0 {
			continue
		}
		for _, tc := range []struct {
			rule   core.Rule
			solver core.Solver
			factor func(eps float64) float64
		}{
			{core.RuleED, core.SolverGonzalez, func(e float64) float64 { return 7 + 2*e }},
			{core.RuleOC, core.SolverGonzalez, func(e float64) float64 { return 5 + 2*e }},
			{core.RuleED, core.SolverExactDiscrete, func(e float64) float64 { return 7 + 2*e }},
			{core.RuleOC, core.SolverExactDiscrete, func(e float64) float64 { return 5 + 2*e }},
		} {
			res, err := solveMetric(space, pts, cands, k, core.Options{
				Rule:   tc.rule,
				Solver: tc.solver,
			})
			if err != nil {
				t.Fatal(err)
			}
			bound := tc.factor(res.EffectiveEps)
			if ratio := res.Ecost / opt.Cost; ratio > bound+slack {
				t.Errorf("trial %d rule=%v solver=%v: metric ratio %.4f > bound %.2f",
					trial, tc.rule, tc.solver, ratio, bound)
			}
		}
	}
}

// TestTheorem23 validates that the restricted-ED optimum is within factor 3
// of the unrestricted optimum, exactly, on finite spaces.
func TestTheorem23(t *testing.T) {
	rng := rand.New(rand.NewSource(230))
	for trial := 0; trial < 15; trial++ {
		space, pts, k := finiteInstance(t, rng)
		cands := space.Points()
		optED, err := bruteforce.RestrictedAssigned[int](space, pts, cands, k, core.RuleED, cands, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		optUn, err := bruteforce.Unrestricted[int](space, pts, cands, k, 2_000_000, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if optUn.Cost <= 0 {
			continue
		}
		if optED.Cost > 3*optUn.Cost+slack {
			t.Errorf("trial %d: Theorem 2.3 violated: restricted-ED %g > 3×unrestricted %g",
				trial, optED.Cost, optUn.Cost)
		}
	}
}

// TestSolveEuclideanValidation exercises the error paths.
func TestSolveEuclideanValidation(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{uncertain.NewDeterministic(geom.Vec{0, 0})}
	if _, err := solveEuclidean(nil, 1, core.Options{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := solveEuclidean(pts, 0, core.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := solveEuclidean(pts, 1, core.Options{Surrogate: 99}); err == nil {
		t.Error("unknown surrogate accepted")
	}
	if _, err := solveEuclidean(pts, 1, core.Options{Solver: 99}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := solveEuclidean(pts, 1, core.Options{Rule: 99}); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestSolveMetricValidation(t *testing.T) {
	space, _ := metricspace.NewFinite([][]float64{{0, 1}, {1, 0}})
	pts := []uncertain.Point[int]{uncertain.NewDeterministic(0)}
	cands := space.Points()
	if _, err := solveMetric(space, nil, cands, 1, core.Options{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := solveMetric(space, pts, cands, 0, core.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := solveMetric(space, pts, cands, 1, core.Options{Solver: core.SolverEps}); err == nil {
		t.Error("SolverEps accepted in metric space")
	}
	if _, err := solveMetric(space, pts, cands, 1, core.Options{Rule: core.RuleEP}); err == nil {
		t.Error("RuleEP accepted in metric space")
	}
}

// TestSolveEuclideanResultConsistency checks internal consistency of the
// reported result fields.
func TestSolveEuclideanResultConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	pts, err := gen.GaussianClusters(rng, 12, 3, 2, 3, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveEuclidean(pts, 3, core.Options{Rule: core.RuleEP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Assign) != len(pts) {
		t.Fatalf("malformed result: %d centers, %d assigns", len(res.Centers), len(res.Assign))
	}
	// Reported Ecost must match an independent evaluation.
	ec, err := compile(t, euclid, pts, nil).EcostAssigned(context.Background(), res.Centers, res.Assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ec-res.Ecost) > 1e-9 {
		t.Errorf("reported Ecost %g, recomputed %g", res.Ecost, ec)
	}
	if res.EcostUnassigned > res.Ecost+1e-9 {
		t.Errorf("unassigned cost %g exceeds assigned %g", res.EcostUnassigned, res.Ecost)
	}
	if len(res.Surrogates) != len(pts) {
		t.Errorf("%d surrogates for %d points", len(res.Surrogates), len(pts))
	}
}

// TestSolveMetricOneCenterSurrogatesAreCandidates: the metric pipeline's
// centers must be actual space points.
func TestSolveMetricCentersAreSpacePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	space, pts, k := finiteInstance(t, rng)
	res, err := solveMetric(space, pts, space.Points(), k, core.Options{Rule: core.RuleOC})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Centers {
		if c < 0 || c >= space.N() {
			t.Errorf("center %d is not a space point", c)
		}
	}
}
