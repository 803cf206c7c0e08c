package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// boundInstance compiles a random Euclidean instance with all point
// locations as candidates, returning everything the bound check needs.
func boundInstance(t testing.TB, rng *rand.Rand) (*Compiled[geom.Vec], []uncertain.Point[geom.Vec], []geom.Vec) {
	t.Helper()
	n := 4 + rng.Intn(12)
	z := 1 + rng.Intn(4)
	pts, err := gen.GaussianClusters(rng, n, z, 2, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cands := uncertain.AllLocations(pts)
	c, err := Compile[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	return c, pts, cands
}

// checkLowerBound asserts the pivot bound is sound on one compiled instance:
// for every scan position of a random chosen set and every candidate,
// LowerBound(base, c) ≤ EvalSwap(base, c) + 1e-12·scale. This is the exact
// inequality pruning relies on.
func checkLowerBound[P any](t testing.TB, c *Compiled[P], chosen []int) {
	t.Helper()
	ctx := context.Background()
	ev, err := c.Evaluator(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := c.CandIndex(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, s := ev.NewBase(), ev.NewScratch()
	st := ix.NewPruneState()
	m := len(c.CandidatesOrLocations())
	for pos := range chosen {
		ev.PrepareBase(base, chosen, pos)
		for p, piv := range ix.Pivots() {
			st.pivotCost[p] = ev.EvalSwap(base, s, int(piv))
		}
		for cd := 0; cd < m; cd++ {
			exact := ev.EvalSwap(base, s, cd)
			lb := ix.LowerBound(base, st, cd)
			tol := 1e-12 * math.Max(1, math.Abs(exact))
			if lb > exact+tol {
				t.Fatalf("pos %d cand %d: LowerBound %.17g > exact %.17g (excess %g)",
					pos, cd, lb, exact, lb-exact)
			}
		}
	}
}

// TestLowerBoundSoundEuclidean sweeps the soundness inequality over random
// Euclidean instances, positions and candidates.
func TestLowerBoundSoundEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for trial := 0; trial < 25; trial++ {
		c, _, cands := boundInstance(t, rng)
		k := 1 + rng.Intn(3)
		if k > len(cands) {
			k = len(cands)
		}
		checkLowerBound(t, c, rng.Perm(len(cands))[:k])
	}
}

// TestLowerBoundSoundFinite runs the same sweep on finite metric spaces —
// the Lipschitz argument uses only the triangle inequality, so any metric
// must satisfy it.
func TestLowerBoundSoundFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	euclid := metricspace.Euclidean{}
	for trial := 0; trial < 15; trial++ {
		mv := 5 + rng.Intn(8)
		vecs := make([]geom.Vec, mv)
		for i := range vecs {
			vecs[i] = geom.Vec{rng.Float64() * 10, rng.Float64() * 10}
		}
		space := metricspace.FromPoints[geom.Vec](euclid, vecs)
		n := 2 + rng.Intn(4)
		z := 1 + rng.Intn(3)
		pts, err := gen.OnVertices(rng, space, n, z)
		if err != nil {
			t.Fatal(err)
		}
		cands := space.Points()
		c, err := Compile[int](context.Background(), space, pts, cands)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		checkLowerBound(t, c, rng.Perm(len(cands))[:k])
	}
}

// TestSweepReusesPreparedState pins the EcostSweep micro-opt: with the
// evaluator, base and scratches already built, the per-sweep work allocates
// only the result rows — the descent's trailing sweep pays no PrepareBase
// re-setup beyond what the rows themselves cost.
func TestSweepReusesPreparedState(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	c, _, cands := boundInstance(t, rng)
	ctx := context.Background()
	ev, err := c.Evaluator(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := ev.NewBase()
	scratches := []*SwapScratch{ev.NewScratch()}
	k := 3
	if k > len(cands) {
		k = len(cands)
	}
	chosen := rng.Perm(len(cands))[:k]

	rows, err := ecostSweepRows(ctx, ev, base, scratches, chosen, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the public entry before pinning allocations.
	pub, err := EcostSweepCompiled(ctx, c, chosen, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range rows {
		for cd := range rows[pos] {
			if rows[pos][cd] != pub[pos][cd] {
				t.Fatalf("reused sweep[%d][%d] = %g, public %g", pos, cd, rows[pos][cd], pub[pos][cd])
			}
		}
	}

	// Per position: the result row and the scan closure (PrepareBase reuses
	// the base's sort scratch); plus the outer result slice. No evaluator,
	// base or scratch construction — that is the reuse.
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ecostSweepRows(ctx, ev, base, scratches, chosen, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(1+2*k) {
		t.Fatalf("ecostSweepRows allocations = %v, want ≤ %d (result rows + per-position scan closures)", allocs, 1+2*k)
	}
}
