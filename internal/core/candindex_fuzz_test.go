package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
)

// fuzzFiniteInstance compiles a random finite-metric instance (points on the
// vertices of a random point cloud's induced metric, masses skewed inside
// the validation tolerance) for the bound fuzzer.
func fuzzFiniteInstance(t testing.TB, rng *rand.Rand) *Compiled[int] {
	t.Helper()
	mv := 4 + rng.Intn(10)
	vecs := make([]geom.Vec, mv)
	for i := range vecs {
		vecs[i] = geom.Vec{rng.Float64() * 10, rng.Float64() * 10}
	}
	space := metricspace.FromPoints[geom.Vec](metricspace.Euclidean{}, vecs)
	n := 2 + rng.Intn(4)
	z := 1 + rng.Intn(3)
	pts, err := gen.OnVertices(rng, space, n, z)
	if err != nil {
		t.Fatal(err)
	}
	gen.SkewMasses(rng, pts)
	c, err := Compile[int](context.Background(), space, pts, space.Points())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzLowerBound fuzzes the pruning soundness invariants of
// checkLowerBound — for a random metric instance, every candidate's t*·G∞
// bound must not exceed its exact swap cost beyond floating-point
// roundoff, and a candidate the armed threshold skips must cost at least
// the threshold's cost₀:
//
//	t*(c)·G∞ ≤ EvalSwap(base, c) + 1e-12·scale
//	EvalSwap(base, c) = +Inf under cost₀  ⇒  exact cost ≥ cost₀·(1 − 1e-12)
//
// The fuzzer steers instance shape (sizes, support, metric kind, chosen
// set) through a seeded RNG, so every failure reproduces from its corpus
// entry. This is the safety net under CandIndexPrune's bit-identical
// trajectory claim: if this invariant held only usually, pruning would
// silently change answers.
//
//	go test ./internal/core -run=FuzzLowerBound -fuzz=FuzzLowerBound -fuzztime=30s
func FuzzLowerBound(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Add(int64(1234567), false)
	f.Add(int64(-99), true)
	f.Fuzz(func(t *testing.T, seed int64, finite bool) {
		rng := rand.New(rand.NewSource(seed))
		pick := func(m int) []int {
			k := 1 + rng.Intn(3)
			if k > m {
				k = m
			}
			return rng.Perm(m)[:k]
		}
		if finite {
			cm := fuzzFiniteInstance(t, rng)
			checkLowerBound(t, cm, pick(len(cm.CandidatesOrLocations())), rng)
			return
		}
		cm, _, cands := boundInstance(t, rng)
		checkLowerBound(t, cm, pick(len(cands)), rng)
	})
}
