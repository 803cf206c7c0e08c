package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// relDiff returns |a-b| / max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) / scale
}

// randomSwapInstance draws a small Euclidean instance plus a random
// candidate set (a mix of point locations and fresh random vectors) and a
// random chosen center-index set.
func randomSwapInstance(t *testing.T, rng *rand.Rand) ([]uncertain.Point[geom.Vec], []geom.Vec, []int) {
	t.Helper()
	n := 1 + rng.Intn(30)
	z := 1 + rng.Intn(4)
	pts, err := gen.GaussianClusters(rng, n, z, 2, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m := 2 + rng.Intn(19)
	cands := make([]geom.Vec, m)
	locs := uncertain.AllLocations(pts)
	for c := range cands {
		if rng.Intn(2) == 0 {
			cands[c] = locs[rng.Intn(len(locs))]
		} else {
			cands[c] = geom.Vec{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		}
	}
	k := 1 + rng.Intn(4)
	if k > m {
		k = m
	}
	chosen := rng.Perm(m)[:k]
	return pts, cands, chosen
}

// TestSwapEvaluatorMatchesRaw is the property test pinning the incremental
// evaluator against the from-scratch exact evaluator: on random instances,
// Cost and every (position, candidate) EvalSwap equal EcostUnassigned of
// the correspondingly modified center set bit for bit.
func TestSwapEvaluatorMatchesRaw(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		pts, cands, chosen := randomSwapInstance(t, rng)
		c := compile(t, euclid, pts, cands)
		ev, err := c.Evaluator(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, s := new(core.SwapBase), new(core.SwapScratch)

		centers := make([]geom.Vec, len(chosen))
		for i, cd := range chosen {
			centers[i] = cands[cd]
		}
		want, err := c.EcostUnassigned(ctx, centers, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.Cost(base, s, chosen); got != want {
			t.Fatalf("trial %d: Cost = %.17g, raw = %.17g", trial, got, want)
		}

		for pos := range chosen {
			ev.PrepareBase(base, chosen, pos)
			for cd := range cands {
				got := ev.EvalSwap(base, s, cd)
				centers[pos] = cands[cd]
				want, err := c.EcostUnassigned(ctx, centers, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d pos %d cand %d: EvalSwap = %.17g, raw = %.17g",
						trial, pos, cd, got, want)
				}
			}
			centers[pos] = cands[chosen[pos]]
		}
	}
}

// TestSwapEvaluatorFiniteMetric runs the same pinning on a finite metric
// space — the evaluator must be metric-agnostic, not a Euclidean special
// case.
func TestSwapEvaluatorFiniteMetric(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 10; trial++ {
		space, pts, k := finiteInstance(t, rng)
		cands := space.Points()
		chosen := rng.Perm(len(cands))[:k]
		fc := compile(t, space, pts, cands)
		ev, err := fc.Evaluator(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, s := new(core.SwapBase), new(core.SwapScratch)
		centers := make([]int, len(chosen))
		for i, c := range chosen {
			centers[i] = cands[c]
		}
		for pos := range chosen {
			ev.PrepareBase(base, chosen, pos)
			for c := range cands {
				got := ev.EvalSwap(base, s, c)
				centers[pos] = cands[c]
				want, err := fc.EcostUnassigned(ctx, centers, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d pos %d cand %d: EvalSwap = %.17g, raw = %.17g", trial, pos, c, got, want)
				}
			}
			centers[pos] = cands[chosen[pos]]
		}
	}
}

// TestEcostSweepMatchesRaw pins the one-shot neighborhood sweep against
// per-entry from-scratch evaluation, across worker counts (the sweep must
// be bit-identical for any parallelism).
func TestEcostSweepMatchesRaw(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(93))
	pts, cands, chosen := randomSwapInstance(t, rng)
	raw := compile(t, euclid, pts, nil)
	var first [][]float64
	for _, workers := range []int{1, 4, 8} {
		sweep, err := core.EcostSweepCompiled(ctx, compile(t, euclid, pts, cands), chosen, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = sweep
			centers := make([]geom.Vec, len(chosen))
			for i, c := range chosen {
				centers[i] = cands[c]
			}
			for pos := range chosen {
				for c := range cands {
					centers[pos] = cands[c]
					want, err := raw.EcostUnassigned(ctx, centers, 1)
					if err != nil {
						t.Fatal(err)
					}
					if sweep[pos][c] != want {
						t.Fatalf("pos %d cand %d: sweep = %.17g, raw = %.17g", pos, c, sweep[pos][c], want)
					}
				}
				centers[pos] = cands[chosen[pos]]
			}
			continue
		}
		for pos := range first {
			for c := range first[pos] {
				if sweep[pos][c] != first[pos][c] {
					t.Fatalf("workers=%d pos %d cand %d: %g != sequential %g",
						workers, pos, c, sweep[pos][c], first[pos][c])
				}
			}
		}
	}
	// The from-scratch sweep equals the incremental one.
	scratch, err := core.EcostSweepCompiled(ctx, compile(t, euclid, pts, cands), chosen, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range first {
		for c := range first[pos] {
			if scratch[pos][c] != first[pos][c] {
				t.Fatalf("scratch sweep[%d][%d] = %.17g vs incremental %.17g", pos, c, scratch[pos][c], first[pos][c])
			}
		}
	}
}

// TestUnassignedTrajectoryEquality proves the incremental, pruned local
// search returns the from-scratch oracle's centers and cost on seeded
// instances with point masses skewed inside the validation tolerance, for
// workers ∈ {1, 4, 8}.
func TestUnassignedTrajectoryEquality(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{101, 102, 103, 104, 105} {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		pts, err := gen.GaussianClusters(rng, n, 3, 2, 3, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		gen.SkewMasses(rng, pts)
		cands := uncertain.AllLocations(pts)
		k := 2 + rng.Intn(2)

		ref, refCost, err := core.SolveUnassignedScratch(ctx, compile(t, euclid, pts, cands), k, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			centers, cost, err := core.SolveUnassignedLSCompiled(ctx, compile(t, euclid, pts, cands), k, core.LocalSearchOptions{
				MaxIter:     50,
				Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if cost != refCost {
				t.Fatalf("seed %d workers %d: cost %.17g != oracle %.17g", seed, workers, cost, refCost)
			}
			if len(centers) != len(ref) {
				t.Fatalf("seed %d workers %d: %d centers != %d", seed, workers, len(centers), len(ref))
			}
			for i := range centers {
				if euclid.Dist(centers[i], ref[i]) != 0 {
					t.Fatalf("seed %d workers %d: center %d = %v != oracle %v", seed, workers, i, centers[i], ref[i])
				}
			}
		}
	}
}
