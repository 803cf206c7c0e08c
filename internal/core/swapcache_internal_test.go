package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
)

// lineEvaluator compiles a random instance on a 24-vertex path metric,
// d(a, b) = |a − b| — integer distances, so many atoms tie in every column
// and every base — and builds its evaluator over every vertex.
func lineEvaluator(t testing.TB, rng *rand.Rand, workers int) (*Compiled[int], *SwapEvaluator[int]) {
	t.Helper()
	vecs := make([]geom.Vec, 24)
	for i := range vecs {
		vecs[i] = geom.Vec{float64(i)}
	}
	space := metricspace.FromPoints[geom.Vec](metricspace.Euclidean{}, vecs)
	pts, err := gen.OnVertices(rng, space, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(context.Background(), space, pts, space.Points())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.Evaluator(context.Background(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return c, ev
}

// TestSwapEvaluatorMatchesEcostUnassignedBitExact pins every cached swap
// cost to the from-scratch Compiled.EcostUnassigned of the same center set,
// bit for bit, on a tie-heavy metric, for k ∈ {1, 3} and sequential and
// parallel builds: both hand the sweep the same per-atom distances.
func TestSwapEvaluatorMatchesEcostUnassignedBitExact(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(141))
	for _, workers := range []int{1, 4} {
		for _, k := range []int{1, 3} {
			c, ev := lineEvaluator(t, rng, workers)
			cands := c.CandidatesOrLocations()
			base, s := ev.NewBase(), ev.NewScratch()
			chosen := rng.Perm(len(cands))[:k]
			centers := make([]int, k)
			for i, ch := range chosen {
				centers[i] = cands[ch]
			}
			for pos := range chosen {
				ev.PrepareBase(base, chosen, pos)
				for cd := range cands {
					centers[pos] = cands[cd]
					want, err := c.EcostUnassigned(ctx, centers, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got := ev.EvalSwap(base, s, cd); got != want {
						t.Fatalf("workers=%d k=%d pos %d cand %d: EvalSwap %.17g != EcostUnassigned %.17g",
							workers, k, pos, cd, got, want)
					}
				}
				centers[pos] = cands[chosen[pos]]
			}
		}
	}
}

// TestPrepareBaseAllocs pins a steady-state PrepareBase allocation-free.
func TestPrepareBaseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	_, ev := lineEvaluator(t, rng, 1)
	base := ev.NewBase()
	chosen := rng.Perm(len(ev.cols))[:4]
	ev.PrepareBase(base, chosen, 0)
	pos := 0
	allocs := testing.AllocsPerRun(100, func() {
		pos = (pos + 1) % len(chosen)
		ev.PrepareBase(base, chosen, pos)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PrepareBase allocates %v times per call, want 0", allocs)
	}
}

// TestEvalSwapAllocs pins a warmed EvalSwap allocation-free across a whole
// candidate scan, unbounded and with SetThreshold armed at the chosen
// set's cost (so the scan both prunes and evaluates): the sweep arena and
// its sort scratch are reused.
func TestEvalSwapAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	_, ev := lineEvaluator(t, rng, 1)
	base, s := ev.NewBase(), ev.NewScratch()
	chosen := rng.Perm(len(ev.cols))[:4]
	ev.PrepareBase(base, chosen, 0)
	cost0 := ev.EvalSwap(base, s, chosen[0])
	for _, bounded := range []bool{false, true} {
		if bounded {
			ev.SetThreshold(base, cost0)
		}
		pruned := 0
		for cd := range ev.cols {
			if math.IsInf(ev.EvalSwap(base, s, cd), 1) {
				pruned++
			}
		}
		if bounded != (pruned > 0) || pruned == len(ev.cols) {
			t.Fatalf("bounded=%v: %d of %d candidates pruned", bounded, pruned, len(ev.cols))
		}
		cd := 0
		allocs := testing.AllocsPerRun(100, func() {
			cd = (cd + 1) % len(ev.cols)
			ev.EvalSwap(base, s, cd)
		})
		if allocs != 0 {
			t.Fatalf("bounded=%v: warm EvalSwap allocates %v times per call, want 0", bounded, allocs)
		}
	}
}
