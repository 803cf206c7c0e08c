package ukc_test

// WithCandidateIndex plumbing through the public Solver API: the default
// (pruned) path must be bit-identical to an explicit CandIndexOff solver,
// per-call mode overrides must win over the option, and WithSwapCache(false)
// must degrade cleanly to the pure oracle regardless of mode.

import (
	"context"
	"math/rand"
	"testing"

	ukc "repro"
	"repro/internal/core"
	"repro/internal/gen"
)

func candIndexInstance(t *testing.T) ukc.Instance[ukc.Vec] {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	pts, err := gen.GaussianClusters(rng, 30, 3, 2, 3, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return ukc.NewEuclideanInstance(pts)
}

func sameUnassigned(t *testing.T, label string, centers, refCenters []ukc.Vec, cost, refCost float64) {
	t.Helper()
	if cost != refCost {
		t.Fatalf("%s: cost %g != ref %g", label, cost, refCost)
	}
	if !sameVecSlices(centers, refCenters) {
		t.Fatalf("%s: centers %v != ref %v", label, centers, refCenters)
	}
}

func sameVecSlices(a, b []ukc.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

func TestWithCandidateIndexPlumbing(t *testing.T) {
	ctx := context.Background()
	inst := candIndexInstance(t)
	const k = 3

	// Reference: explicit off (the PR-3 oracle trajectory).
	off := ukc.NewSolver[ukc.Vec](ukc.WithCandidateIndex(core.CandIndexOff))
	refCenters, refCost, err := off.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}

	// The zero-option solver defaults to pruning and must match bit-for-bit.
	def := ukc.NewSolver[ukc.Vec]()
	c1, cost1, err := def.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}
	sameUnassigned(t, "default(prune) vs off", c1, refCenters, cost1, refCost)

	// Explicit option.
	prune := ukc.NewSolver[ukc.Vec](ukc.WithCandidateIndex(ukc.CandIndexPrune))
	c2, cost2, err := prune.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}
	sameUnassigned(t, "WithCandidateIndex(prune) vs off", c2, refCenters, cost2, refCost)

	// Per-call override beats the option: an off-configured solver asked for
	// prune, and a prune-configured solver asked for off, both land on the
	// same trajectory.
	c3, cost3, err := off.SolveUnassignedMode(ctx, inst, k, ukc.CandIndexPrune)
	if err != nil {
		t.Fatal(err)
	}
	sameUnassigned(t, "off-solver forced prune", c3, refCenters, cost3, refCost)
	c4, cost4, err := prune.SolveUnassignedMode(ctx, inst, k, core.CandIndexOff)
	if err != nil {
		t.Fatal(err)
	}
	sameUnassigned(t, "prune-solver forced off", c4, refCenters, cost4, refCost)

	// WithSwapCache(false) has no evaluator to index: any mode must still
	// answer, on the from-scratch oracle, with the same trajectory.
	// Centers match exactly; the cost may differ from the cached path by
	// floating-point roundoff (≤ 1e-12 relative), as the swap-cache tests pin.
	raw := ukc.NewSolver[ukc.Vec](ukc.WithSwapCache(false), ukc.WithCandidateIndex(ukc.CandIndexPrune))
	c5, cost5, err := raw.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVecSlices(c5, refCenters) {
		t.Fatalf("no-swap-cache prune: centers %v != ref %v", c5, refCenters)
	}
	if d := cost5 - refCost; d > 1e-12*refCost || d < -1e-12*refCost {
		t.Fatalf("no-swap-cache prune: cost %g != ref %g", cost5, refCost)
	}
}

func TestCandidateIndexApproxThroughAPI(t *testing.T) {
	ctx := context.Background()
	inst := candIndexInstance(t)
	const k = 3
	approx := ukc.NewSolver[ukc.Vec](ukc.WithCandidateIndex(ukc.CandIndexApprox))
	centers, cost, err := approx.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > k {
		t.Fatalf("approx returned %d centers", len(centers))
	}
	// The reported cost is the exact E-cost of the returned centers: the
	// approximation restricts the search, never the evaluation.
	exact, err := approx.EcostUnassigned(ctx, inst, centers)
	if err != nil {
		t.Fatal(err)
	}
	if d := cost - exact; d > 1e-12*exact || d < -1e-12*exact {
		t.Fatalf("approx reported %g, exact E-cost of its centers %g", cost, exact)
	}
	// Deterministic across repeated calls on the same (cached) instance.
	c2, cost2, err := approx.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}
	sameUnassigned(t, "approx repeat", c2, centers, cost2, cost)
}
