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

// sameBits reports whether two float64 slices agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFlatDistancesMatchSpaceDist compiles one instance twice: under
// metricspace.Euclidean{}, whose distances come from the coordinate column
// through internal/geom's flat loops, and under a DistFunc wrapping
// geom.Dist, which takes the generic Space.Dist path. Every consumer of the
// flat loops — the atom rows and least atom distances the evaluator reads
// (distsToVec, minDistTo), checked against distsTo, both exact E-costs,
// the sweep matrix and the local search — must agree bit for bit, for
// d ∈ {1, 2, 3} (both sides of the planar case) and sequential and
// parallel workers.
func TestFlatDistancesMatchSpaceDist(t *testing.T) {
	ctx := context.Background()
	generic := metricspace.DistFunc[geom.Vec](geom.Dist)
	for _, d := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(700 + 10*d + workers)))
			pts, err := gen.GaussianClusters(rng, 24, 4, d, 4, 1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			gen.SkewMasses(rng, pts)
			pts[0].Probs[1], pts[0].Probs[0] = 0, pts[0].Probs[0]+pts[0].Probs[1] // a pruned atom
			flat, err := Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			viaDist, err := Compile[geom.Vec](ctx, generic, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if flat.Coords() == nil || viaDist.Coords() != nil {
				t.Fatalf("d=%d: Coords() nil = %v (Euclidean), %v (DistFunc); want false, true",
					d, flat.Coords() == nil, viaDist.Coords() == nil)
			}
			cands := flat.CandidatesOrLocations()

			for cd := range cands {
				want := make([]float64, flat.NumAtoms())
				flat.distsTo(want, 0, cands[cd])
				viaDistAtoms := make([]float64, len(want))
				viaDist.distsTo(viaDistAtoms, 0, cands[cd])
				if !sameBits(want, viaDistAtoms) {
					t.Fatalf("d=%d workers=%d: distsTo of candidate %d differs", d, workers, cd)
				}
				for i := range flat.NumPoints() {
					lo, hi := int(flat.offsets[i]), int(flat.offsets[i+1])
					for name, c := range map[string]*Compiled[geom.Vec]{"Euclidean": flat, "DistFunc": viaDist} {
						q := cands[cd]
						got := make([]float64, hi-lo)
						c.distsToVec(got, lo, q, c.vec(q))
						if !sameBits(got, want[lo:hi]) {
							t.Fatalf("d=%d workers=%d %s: candidate %d point %d atoms %v, distsTo %v",
								d, workers, name, cd, i, got, want[lo:hi])
						}
						least := math.Inf(1)
						for _, v := range got {
							least = min(least, v)
						}
						if m := c.minDistTo(lo, hi, q, c.vec(q), -1); math.Float64bits(m) != math.Float64bits(least) {
							t.Fatalf("d=%d workers=%d %s: candidate %d point %d least atom %.17g, want %.17g",
								d, workers, name, cd, i, m, least)
						}
					}
				}
			}

			k := 3
			chosen := rng.Perm(len(cands))[:k]
			centers := make([]geom.Vec, k)
			for i, ch := range chosen {
				centers[i] = cands[ch]
			}
			assign := make([]int, len(pts))
			for i := range assign {
				assign[i] = rng.Intn(k)
			}
			a1, err := flat.EcostAssigned(ctx, centers, assign, workers)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := viaDist.EcostAssigned(ctx, centers, assign, workers)
			if err != nil {
				t.Fatal(err)
			}
			u1, err := flat.EcostUnassigned(ctx, centers, workers)
			if err != nil {
				t.Fatal(err)
			}
			u2, err := viaDist.EcostUnassigned(ctx, centers, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits([]float64{a1, u1}, []float64{a2, u2}) {
				t.Fatalf("d=%d workers=%d: E-costs (assigned, unassigned) = (%.17g, %.17g) flat, (%.17g, %.17g) generic",
					d, workers, a1, u1, a2, u2)
			}

			s1, err := EcostSweepCompiled(ctx, flat, chosen, workers, false)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := EcostSweepCompiled(ctx, viaDist, chosen, workers, false)
			if err != nil {
				t.Fatal(err)
			}
			for pos := range s1 {
				if !sameBits(s1[pos], s2[pos]) {
					t.Fatalf("d=%d workers=%d: sweep row %d differs", d, workers, pos)
				}
			}

			opts := LocalSearchOptions{MaxIter: 50, Parallelism: workers}
			c1, cost1, err := SolveUnassignedLSCompiled(ctx, flat, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			c2, cost2, err := SolveUnassignedLSCompiled(ctx, viaDist, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(cost1) != math.Float64bits(cost2) || len(c1) != len(c2) {
				t.Fatalf("d=%d workers=%d: local search cost %.17g (%d centers) flat, %.17g (%d) generic",
					d, workers, cost1, len(c1), cost2, len(c2))
			}
			for i := range c1 {
				if !sameBits(c1[i], c2[i]) {
					t.Fatalf("d=%d workers=%d: local search center %d = %v flat, %v generic", d, workers, i, c1[i], c2[i])
				}
			}
		}
	}
}

// TestCompileOwnsCoordinates: a Euclidean Compile copies the coordinates
// into its own column once — every location and point view aliases it —
// so mutating the input points afterwards does not reach the instance.
func TestCompileOwnsCoordinates(t *testing.T) {
	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(5)), 6, 3, 2, 2, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	xy := c.Coords()
	if len(xy) != c.NumAtoms()*c.Dim() {
		t.Fatalf("len(Coords) = %d, want %d", len(xy), c.NumAtoms()*c.Dim())
	}
	for f, loc := range c.locs {
		if &loc[0] != &xy[f*c.Dim()] {
			t.Fatalf("atom %d does not alias the coordinate column", f)
		}
	}
	if &c.Points()[1].Locs[0][0] != &xy[c.offsets[1]*int32(c.Dim())] {
		t.Fatal("point view does not alias the coordinate column")
	}
	want := c.Points()[0].Locs[0][0]
	pts[0].Locs[0][0] += 100
	if got := c.Points()[0].Locs[0][0]; got != want {
		t.Fatalf("mutating the input moved the compiled atom: %v, want %v", got, want)
	}
}
