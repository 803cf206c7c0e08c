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

// boundInstance compiles a random Euclidean instance in d ∈ {1, 2, 3}
// dimensions — every atom loop of the evaluator's flat path — with all
// point locations as candidates and point masses skewed inside the
// validation tolerance, returning everything the bound check needs.
func boundInstance(t testing.TB, rng *rand.Rand) (*Compiled[geom.Vec], []uncertain.Point[geom.Vec], []geom.Vec) {
	t.Helper()
	n := 4 + rng.Intn(12)
	z := 1 + rng.Intn(4)
	d := 1 + rng.Intn(3)
	pts, err := gen.GaussianClusters(rng, n, z, d, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gen.SkewMasses(rng, pts)
	cands := uncertain.AllLocations(pts)
	c, err := Compile[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	return c, pts, cands
}

// checkLowerBound asserts both prune certificates are sound on one compiled
// instance, for every scan position of a chosen set and every candidate c,
// against candidate c's atoms recomputed with distsTo:
//
//   - tStar is exactly max_i min_f min(base_f, d_f(c)), and
//     t*(c)·G∞ ≤ EvalSwap(base, c) + 1e-12·scale;
//   - for every point i, the expected-excess bound
//     (G∞/m̃_i)·(Σ_f p_f·max(t*, v_f) − max(0, mass_i − 1)·vmax_i)
//     ≤ EvalSwap(base, c) + 1e-12·scale, with v_f = min(base_f, d_f(c));
//   - with the threshold armed at cost₀ — the chosen set's cost, and the
//     exact cost of a few candidates, so decisions land on the boundary —
//     EvalSwap returns the exact cost bit for bit, or +Inf only for a
//     candidate whose exact cost is ≥ cost₀·(1 − 1e-12).
//
// These are the inequalities pruning's bit-identical trajectories rest on.
func checkLowerBound[P any](t testing.TB, c *Compiled[P], chosen []int, rng *rand.Rand) {
	t.Helper()
	ev, err := c.Evaluator(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base, s := new(SwapBase), new(SwapScratch)
	cands := c.CandidatesOrLocations()
	m := len(cands)
	gInf := c.lay.Mass()
	atoms := make([]float64, c.NumAtoms())
	exact := make([]float64, m)
	for pos := range chosen {
		ev.PrepareBase(base, chosen, pos)
		for cd := 0; cd < m; cd++ {
			exact[cd] = ev.EvalSwap(base, s, cd)
			tol := 1e-12 * math.Max(1, math.Abs(exact[cd]))
			c.distsTo(atoms, 0, cands[cd])
			want := math.Inf(-1)
			for i := 0; i+1 < len(c.offsets); i++ {
				pm := math.Inf(1)
				for f := c.offsets[i]; f < c.offsets[i+1]; f++ {
					pm = min(pm, base.vals[f], atoms[f])
				}
				want = max(want, pm)
			}
			ts := ev.tStar(base, cd)
			if ts != want {
				t.Fatalf("pos %d cand %d: tStar %.17g, want %.17g", pos, cd, ts, want)
			}
			if lb := ts * gInf; lb > exact[cd]+tol {
				t.Fatalf("pos %d cand %d: t*·G∞ %.17g > exact %.17g (excess %g, G∞ = %.17g)",
					pos, cd, lb, exact[cd], lb-exact[cd], gInf)
			}
			for i := 0; i+1 < len(c.offsets); i++ {
				mass, sum, top := 0.0, 0.0, ts
				for f := c.offsets[i]; f < c.offsets[i+1]; f++ {
					w := max(ts, min(base.vals[f], atoms[f]))
					mass += c.probs[f]
					sum += c.probs[f] * w
					top = max(top, w)
				}
				lb := gInf / min(1, mass) * (sum - max(0, mass-1)*top)
				if lb > exact[cd]+tol {
					t.Fatalf("pos %d cand %d point %d: expected-excess bound %.17g > exact %.17g (mass %.17g)",
						pos, cd, i, lb, exact[cd], mass)
				}
			}
		}
		thresholds := []float64{exact[chosen[pos]]}
		for range 3 {
			thresholds = append(thresholds, exact[rng.Intn(m)])
		}
		for _, cost0 := range thresholds {
			ev.SetThreshold(base, cost0)
			for cd := 0; cd < m; cd++ {
				got := ev.EvalSwap(base, s, cd)
				if math.IsInf(got, 1) {
					if exact[cd] < cost0*(1-1e-12) {
						t.Fatalf("pos %d cand %d: skipped at cost₀ %.17g, exact cost %.17g", pos, cd, cost0, exact[cd])
					}
				} else if got != exact[cd] {
					t.Fatalf("pos %d cand %d: bounded EvalSwap %.17g != exact %.17g", pos, cd, got, exact[cd])
				}
			}
		}
	}
}

// TestLowerBoundSoundEuclidean sweeps the certificate over random
// Euclidean instances, positions and candidates.
func TestLowerBoundSoundEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for trial := 0; trial < 25; trial++ {
		c, _, cands := boundInstance(t, rng)
		k := 1 + rng.Intn(3)
		if k > len(cands) {
			k = len(cands)
		}
		checkLowerBound(t, c, rng.Perm(len(cands))[:k], rng)
	}
}

// TestLowerBoundSoundFinite runs the same sweep on finite metric spaces:
// the bound uses no geometry, only that every realization's max is ≥ t*.
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
		gen.SkewMasses(rng, pts)
		cands := space.Points()
		c, err := Compile[int](context.Background(), space, pts, cands)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		checkLowerBound(t, c, rng.Perm(len(cands))[:k], rng)
	}
}

// TestSweepReusesPreparedState pins the EcostSweep micro-opt: with the
// base and scratches already built, the per-sweep work allocates only the
// result rows — the descent's trailing sweep pays no PrepareBase re-setup
// and no per-candidate allocation for the on-demand atoms beyond what the
// rows themselves cost.
func TestSweepReusesPreparedState(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	c, _, cands := boundInstance(t, rng)
	ctx := context.Background()
	ev, err := c.Evaluator(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := new(SwapBase)
	scratches := []*SwapScratch{new(SwapScratch)}
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
	// the base's sort scratch and center buffers); plus the outer result
	// slice. No base or scratch construction — that is the reuse.
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ecostSweepRows(ctx, ev, base, scratches, chosen, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(1+2*k) {
		t.Fatalf("ecostSweepRows allocations = %v, want ≤ %d (result rows + per-position scan closures)", allocs, 1+2*k)
	}
}
