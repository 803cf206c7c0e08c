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
		ev, err := compile(t, euclid, pts, cands).Evaluator(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, s := ev.NewBase(), ev.NewScratch()

		centers := make([]geom.Vec, len(chosen))
		for i, c := range chosen {
			centers[i] = cands[c]
		}
		want, err := core.EcostUnassigned[geom.Vec](euclid, pts, centers)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.Cost(base, s, chosen); got != want {
			t.Fatalf("trial %d: Cost = %.17g, raw = %.17g", trial, got, want)
		}

		for pos := range chosen {
			ev.PrepareBase(base, chosen, pos)
			for c := range cands {
				got := ev.EvalSwap(base, s, c)
				centers[pos] = cands[c]
				want, err := core.EcostUnassigned[geom.Vec](euclid, pts, centers)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d pos %d cand %d: EvalSwap = %.17g, raw = %.17g",
						trial, pos, c, got, want)
				}
			}
			centers[pos] = cands[chosen[pos]]
		}
	}
}

// TestSwapEvaluatorFiniteMetric runs the same pinning on a finite metric
// space — the cache must be metric-agnostic, not a Euclidean special case.
func TestSwapEvaluatorFiniteMetric(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 10; trial++ {
		space, pts, k := finiteInstance(t, rng)
		cands := space.Points()
		chosen := rng.Perm(len(cands))[:k]
		ev, err := compile(t, space, pts, cands).Evaluator(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, s := ev.NewBase(), ev.NewScratch()
		centers := make([]int, len(chosen))
		for i, c := range chosen {
			centers[i] = cands[c]
		}
		for pos := range chosen {
			ev.PrepareBase(base, chosen, pos)
			for c := range cands {
				got := ev.EvalSwap(base, s, c)
				centers[pos] = cands[c]
				want, err := core.EcostUnassigned[int](space, pts, centers)
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
					want, err := core.EcostUnassigned[geom.Vec](euclid, pts, centers)
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
	// The cache-disabled escape hatch equals the cached sweep.
	scratch, err := core.EcostSweepCompiled(ctx, compile(t, euclid, pts, cands), chosen, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range first {
		for c := range first[pos] {
			if scratch[pos][c] != first[pos][c] {
				t.Fatalf("scratch sweep[%d][%d] = %.17g vs cached %.17g", pos, c, scratch[pos][c], first[pos][c])
			}
		}
	}
}

// TestUnassignedTrajectoryEquality proves old (from-scratch oracle) and new
// (incremental cache) local search return the same centers and cost on
// seeded instances, for workers ∈ {1, 4, 8}.
func TestUnassignedTrajectoryEquality(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{101, 102, 103, 104, 105} {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		pts, err := gen.GaussianClusters(rng, n, 3, 2, 3, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cands := uncertain.AllLocations(pts)
		k := 2 + rng.Intn(2)

		type run struct {
			centers []geom.Vec
			cost    float64
		}
		var ref *run
		for _, workers := range []int{1, 4, 8} {
			for _, disable := range []bool{false, true} {
				centers, cost, err := core.SolveUnassignedLSCompiled(ctx, compile(t, euclid, pts, cands), k, core.LocalSearchOptions{
					MaxIter:          50,
					Parallelism:      workers,
					DisableSwapCache: disable,
				})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = &run{centers, cost}
					continue
				}
				if cost != ref.cost {
					t.Fatalf("seed %d workers %d cache=%v: cost %.17g != ref %.17g",
						seed, workers, !disable, cost, ref.cost)
				}
				if len(centers) != len(ref.centers) {
					t.Fatalf("seed %d workers %d cache=%v: %d centers != %d",
						seed, workers, !disable, len(centers), len(ref.centers))
				}
				for i := range centers {
					if euclid.Dist(centers[i], ref.centers[i]) != 0 {
						t.Fatalf("seed %d workers %d cache=%v: center %d = %v != ref %v",
							seed, workers, !disable, i, centers[i], ref.centers[i])
					}
				}
			}
		}
	}
}
