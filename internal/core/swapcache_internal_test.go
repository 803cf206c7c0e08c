package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
)

// lineEvaluator builds the evaluator of a random instance on a 24-vertex
// path metric, d(a, b) = |a − b|: integer distances, so many atoms tie in
// every column and every base.
func lineEvaluator(t testing.TB, rng *rand.Rand, workers int) *SwapEvaluator[int] {
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
	ev, err := NewSwapEvaluator[int](context.Background(), space, pts, space.Points(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// checkCanonical fails unless ord is a permutation of vals' indices in
// ascending (value, index) order, and returns how many neighbors tie.
func checkCanonical(t *testing.T, what string, vals []float64, ord []int32) int {
	t.Helper()
	if len(ord) != len(vals) {
		t.Fatalf("%s: %d indices for %d values", what, len(ord), len(vals))
	}
	seen := make([]bool, len(vals))
	ties := 0
	for i, f := range ord {
		if seen[f] {
			t.Fatalf("%s: atom %d listed twice", what, f)
		}
		seen[f] = true
		if i == 0 {
			continue
		}
		p := ord[i-1]
		if vals[p] > vals[f] || (vals[p] == vals[f] && p > f) {
			t.Fatalf("%s: (%g, %d) before (%g, %d)", what, vals[p], p, vals[f], f)
		}
		if vals[p] == vals[f] {
			ties++
		}
	}
	return ties
}

// TestSwapEvaluatorCanonicalOrder pins every evaluator column and every
// prepared base to the canonical ascending (distance, atom) order, on a
// tie-heavy metric, for sequential and parallel builds.
func TestSwapEvaluatorCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, workers := range []int{1, 4} {
		ev := lineEvaluator(t, rng, workers)
		ties := 0
		for cd := range ev.cols {
			ties += checkCanonical(t, "column", ev.cols[cd], ev.order[cd])
		}
		base := ev.NewBase()
		chosen := rng.Perm(len(ev.cols))[:3]
		for pos := range chosen {
			ev.PrepareBase(base, chosen, pos)
			ties += checkCanonical(t, "base", base.vals, base.order[:base.n])
		}
		if ties == 0 {
			t.Fatalf("workers=%d: no ties on the path metric; the order check is vacuous", workers)
		}
	}
}

// TestPrepareBaseAllocs pins a steady-state PrepareBase allocation-free:
// once the base has sorted once, its radix scratch is reused.
func TestPrepareBaseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	ev := lineEvaluator(t, rng, 1)
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
