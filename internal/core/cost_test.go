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

var euclid = metricspace.Euclidean{}

// smallInstance draws a random Euclidean instance small enough for the
// enumeration oracle.
func smallInstance(t testing.TB, rng *rand.Rand, n, z, dim int) []uncertain.Point[geom.Vec] {
	t.Helper()
	pts, err := gen.UniformBox(rng, n, z, dim, 10)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// mustCompile compiles pts with no explicit candidates, failing the test on
// error.
func mustCompile[P any](t testing.TB, space metricspace.Space[P], pts []uncertain.Point[P]) *Compiled[P] {
	t.Helper()
	c, err := Compile(context.Background(), space, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomCenters(rng *rand.Rand, k, dim int) []geom.Vec {
	out := make([]geom.Vec, k)
	for i := range out {
		out[i] = geom.NewVec(dim)
		for a := 0; a < dim; a++ {
			out[i][a] = rng.Float64() * 10
		}
	}
	return out
}

func TestEcostAssignedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		n, z := 1+rng.Intn(5), 1+rng.Intn(3)
		pts := smallInstance(t, rng, n, z, 2)
		k := 1 + rng.Intn(3)
		centers := randomCenters(rng, k, 2)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		fast, err := mustCompile(t, euclid, pts).EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := EcostAssignedNaive[geom.Vec](euclid, pts, centers, assign, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-9*(1+slow) {
			t.Fatalf("trial %d: fast %g vs naive %g", trial, fast, slow)
		}
	}
}

func TestEcostUnassignedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 100; trial++ {
		n, z := 1+rng.Intn(5), 1+rng.Intn(3)
		pts := smallInstance(t, rng, n, z, 2)
		centers := randomCenters(rng, 1+rng.Intn(3), 2)
		fast, err := mustCompile(t, euclid, pts).EcostUnassigned(context.Background(), centers, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := EcostUnassignedNaive[geom.Vec](euclid, pts, centers, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-9*(1+slow) {
			t.Fatalf("trial %d: fast %g vs naive %g", trial, fast, slow)
		}
	}
}

func TestEcostMonteCarloAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-check skipped in -short")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(103))
	pts := smallInstance(t, rng, 20, 4, 2)
	c := mustCompile(t, euclid, pts)
	centers := randomCenters(rng, 3, 2)
	assign, err := AssignCompiled(ctx, c, centers, RuleED, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := c.EcostAssigned(ctx, centers, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := EcostMonteCarlo[geom.Vec](euclid, pts, centers, assign, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-mc)/exact > 0.02 {
		t.Errorf("exact %g vs Monte-Carlo %g", exact, mc)
	}
	// Unassigned flavor.
	exactU, err := c.EcostUnassigned(ctx, centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	mcU, err := EcostMonteCarlo[geom.Vec](euclid, pts, centers, nil, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exactU-mcU)/exactU > 0.02 {
		t.Errorf("unassigned exact %g vs Monte-Carlo %g", exactU, mcU)
	}
}

func TestEcostValidation(t *testing.T) {
	ctx := context.Background()
	pts := []uncertain.Point[geom.Vec]{uncertain.NewDeterministic(geom.Vec{0, 0})}
	c := mustCompile(t, euclid, pts)
	centers := []geom.Vec{{1, 1}}
	if _, err := c.EcostAssigned(ctx, centers, []int{5}, 1); err == nil {
		t.Error("out-of-range assignment accepted")
	}
	if _, err := c.EcostAssigned(ctx, centers, []int{0, 0}, 1); err == nil {
		t.Error("wrong-length assignment accepted")
	}
	if _, err := c.EcostAssigned(ctx, nil, []int{0}, 1); err == nil {
		t.Error("no centers accepted")
	}
	if _, err := Compile[geom.Vec](ctx, euclid, nil, nil); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := c.EcostUnassigned(ctx, nil, 1); err == nil {
		t.Error("no centers accepted (unassigned)")
	}
	if _, err := EcostMonteCarlo[geom.Vec](euclid, pts, centers, nil, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("samples=0 accepted")
	}
}

// TestUnassignedLeqAssigned: snapping every realization to its nearest
// center can only beat any fixed assignment.
func TestUnassignedLeqAssigned(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 100; trial++ {
		pts := smallInstance(t, rng, 1+rng.Intn(6), 1+rng.Intn(4), 2)
		c := mustCompile(t, euclid, pts)
		k := 1 + rng.Intn(3)
		centers := randomCenters(rng, k, 2)
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		a, err := c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		u, err := c.EcostUnassigned(ctx, centers, 1)
		if err != nil {
			t.Fatal(err)
		}
		if u > a+1e-9 {
			t.Fatalf("trial %d: unassigned %g > assigned %g", trial, u, a)
		}
	}
}

// TestMaxExpLeqEcost verifies the documented objective inequality
// max_i E[d_i] ≤ E[max_i d_i] for both assigned and unassigned versions.
func TestMaxExpLeqEcost(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 100; trial++ {
		pts := smallInstance(t, rng, 1+rng.Intn(6), 1+rng.Intn(4), 2)
		c := mustCompile(t, euclid, pts)
		k := 1 + rng.Intn(3)
		centers := randomCenters(rng, k, 2)
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		me, err := c.MaxExpCostAssigned(centers, assign)
		if err != nil {
			t.Fatal(err)
		}
		ec, err := c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		if me > ec+1e-9 {
			t.Fatalf("trial %d: maxE %g > Emax %g", trial, me, ec)
		}
		// The unassigned analogue needs care: min over centers of an
		// expectation is ≥ the expectation of the min, so MaxExpCostUnassigned
		// is NOT below EcostUnassigned in general. It is, however, exactly
		// MaxExpCostAssigned under the ED assignment, which Jensen bounds by
		// the ED-assigned Ecost.
		edAssign, err := AssignCompiled(ctx, c, centers, RuleED, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		meu, err := c.MaxExpCostUnassigned(centers)
		if err != nil {
			t.Fatal(err)
		}
		meED, err := c.MaxExpCostAssigned(centers, edAssign)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(meu-meED) > 1e-9 {
			t.Fatalf("trial %d: MaxExpCostUnassigned %g != ED-assigned %g", trial, meu, meED)
		}
		ecED, err := c.EcostAssigned(ctx, centers, edAssign, 1)
		if err != nil {
			t.Fatal(err)
		}
		if meu > ecED+1e-9 {
			t.Fatalf("trial %d: maxE(ED) %g > Emax(ED) %g", trial, meu, ecED)
		}
	}
}

// TestLemma32 verifies Lemma 3.2: for every i,
// EcostA ≥ Σ_j prob(P̂_i)·d(P̂_i, A(P_i)).
func TestLemma32(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 100; trial++ {
		pts := smallInstance(t, rng, 1+rng.Intn(5), 1+rng.Intn(4), 2)
		k := 1 + rng.Intn(3)
		centers := randomCenters(rng, k, 2)
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		ec, err := mustCompile(t, euclid, pts).EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			lower := uncertain.ExpectedDist[geom.Vec](euclid, p, centers[assign[i]])
			if lower > ec+1e-9 {
				t.Fatalf("trial %d: Lemma 3.2 violated at point %d: %g > %g", trial, i, lower, ec)
			}
		}
	}
}

// TestLemma33 verifies Lemma 3.3: E[max_i d(P̂_i, P̄_i)] ≤ 2·EcostA for any
// centers and assignment (Euclidean).
func TestLemma33(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 100; trial++ {
		pts := smallInstance(t, rng, 1+rng.Intn(5), 1+rng.Intn(4), 2)
		k := 1 + rng.Intn(3)
		centers := randomCenters(rng, k, 2)
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		c := mustCompile(t, euclid, pts)
		ec, err := c.EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		// E[max_i d(P̂_i, P̄_i)]: assign point i to "its own" surrogate, i.e.
		// treat surrogates as a center list with the identity assignment.
		surr := uncertain.ExpectedPoints(pts)
		ident := make([]int, len(pts))
		for i := range ident {
			ident[i] = i
		}
		lhs, err := c.EcostAssigned(context.Background(), surr, ident, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lhs > 2*ec+1e-9 {
			t.Fatalf("trial %d: Lemma 3.3 violated: %g > 2·%g", trial, lhs, ec)
		}
	}
}

// TestLemma34 verifies Lemma 3.4: the certain k-center cost of the expected
// points is at most EcostA for any centers and assignment.
func TestLemma34(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	for trial := 0; trial < 100; trial++ {
		pts := smallInstance(t, rng, 1+rng.Intn(5), 1+rng.Intn(4), 2)
		k := 1 + rng.Intn(3)
		centers := randomCenters(rng, k, 2)
		assign := make([]int, len(pts))
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		ec, err := mustCompile(t, euclid, pts).EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		surr := uncertain.ExpectedPoints(pts)
		var certain float64
		for _, s := range surr {
			best := math.Inf(1)
			for _, c := range centers {
				if d := geom.Dist(s, c); d < best {
					best = d
				}
			}
			if best > certain {
				certain = best
			}
		}
		if certain > ec+1e-9 {
			t.Fatalf("trial %d: Lemma 3.4 violated: cost %g > EcostA %g", trial, certain, ec)
		}
	}
}

// TestLemma35And36 verifies the metric-space lemmas with 1-center
// surrogates: E[max_i d(P̂_i, P̃_i)] ≤ 3·EcostA (Lemma 3.5) and
// cost(centers) over P̃ ≤ 2·EcostA (Lemma 3.6), on finite metrics.
func TestLemma35And36(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 60; trial++ {
		// Random Euclidean-induced finite metric (generic position).
		m := 5 + rng.Intn(6)
		vecs := make([]geom.Vec, m)
		for i := range vecs {
			vecs[i] = geom.Vec{rng.Float64() * 10, rng.Float64() * 10}
		}
		space := metricspace.FromPoints[geom.Vec](euclid, vecs)
		n, z := 1+rng.Intn(4), 1+rng.Intn(3)
		pts, err := gen.OnVertices(rng, space, n, z)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		centers := make([]int, k)
		for i := range centers {
			centers[i] = rng.Intn(m)
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		c := mustCompile(t, space, pts)
		ec, err := c.EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		surr := uncertain.OneCentersDiscrete[int](space, pts, space.Points())
		ident := make([]int, n)
		for i := range ident {
			ident[i] = i
		}
		lhs, err := c.EcostAssigned(context.Background(), surr, ident, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lhs > 3*ec+1e-9 {
			t.Fatalf("trial %d: Lemma 3.5 violated: %g > 3·%g", trial, lhs, ec)
		}
		var certain float64
		for _, s := range surr {
			best := math.Inf(1)
			for _, c := range centers {
				if d := space.Dist(s, c); d < best {
					best = d
				}
			}
			if best > certain {
				certain = best
			}
		}
		if certain > 2*ec+1e-9 {
			t.Fatalf("trial %d: Lemma 3.6 violated: %g > 2·%g", trial, certain, ec)
		}
	}
}
