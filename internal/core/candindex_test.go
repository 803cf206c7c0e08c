package core_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
	"repro/obs"
)

// lsInstance draws a seeded Euclidean instance sized so the local search
// runs several swap rounds (enough surface for pruning to matter), with
// point masses skewed inside the validation tolerance.
func lsInstance(t *testing.T, seed int64) ([]uncertain.Point[geom.Vec], []geom.Vec, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(12)
	pts, err := gen.GaussianClusters(rng, n, 3, 2, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gen.SkewMasses(rng, pts)
	cands := uncertain.AllLocations(pts)
	k := 2 + rng.Intn(2)
	return pts, cands, k
}

// sameTrajectory asserts two local-search outcomes are bit-identical:
// exactly equal cost and exactly equal center sequences.
func sameTrajectory[P any](t *testing.T, space metricspace.Space[P], label string, centers, refCenters []P, cost, refCost float64) {
	t.Helper()
	if cost != refCost {
		t.Fatalf("%s: cost %g != ref %g", label, cost, refCost)
	}
	if len(centers) != len(refCenters) {
		t.Fatalf("%s: %d centers != ref %d", label, len(centers), len(refCenters))
	}
	for i := range centers {
		if space.Dist(centers[i], refCenters[i]) != 0 {
			t.Fatalf("%s: center %d = %v != ref %v", label, i, centers[i], refCenters[i])
		}
	}
}

// TestPruneTrajectoryEquality is the tentpole safety pin: with pruning on,
// the local search must follow the exact oracle's trajectory bit-identically
// — same centers in the same order, same cost — for every worker count.
func TestPruneTrajectoryEquality(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{201, 202, 203, 204, 205} {
		pts, cands, k := lsInstance(t, seed)
		c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
		if err != nil {
			t.Fatal(err)
		}
		var refCenters []geom.Vec
		var refCost float64
		for _, workers := range []int{1, 4, 8} {
			for _, mode := range []core.CandidateIndexMode{core.CandIndexOff, core.CandIndexPrune} {
				centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
					MaxIter:        50,
					Parallelism:    workers,
					CandidateIndex: mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				if refCenters == nil {
					refCenters, refCost = centers, cost
					continue
				}
				if cost != refCost || len(centers) != len(refCenters) {
					t.Fatalf("seed %d workers %d mode %v: cost %g (ref %g), %d centers (ref %d)",
						seed, workers, mode, cost, refCost, len(centers), len(refCenters))
				}
				for i := range centers {
					if euclid.Dist(centers[i], refCenters[i]) != 0 {
						t.Fatalf("seed %d workers %d mode %v: center %d = %v != ref %v",
							seed, workers, mode, i, centers[i], refCenters[i])
					}
				}
			}
		}
	}
}

// TestPruneTrajectoryEqualityFinite runs the same pin on finite metric
// spaces, with point masses skewed inside the validation tolerance — the
// bound must hold in any metric, not just Euclidean.
func TestPruneTrajectoryEqualityFinite(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(210))
	for trial := 0; trial < 8; trial++ {
		space, pts, k := finiteInstance(t, rng)
		gen.SkewMasses(rng, pts)
		cands := space.Points()
		c, err := core.Compile[int](ctx, space, pts, cands)
		if err != nil {
			t.Fatal(err)
		}
		var refCenters []int
		var refCost float64
		for _, workers := range []int{1, 4, 8} {
			for _, mode := range []core.CandidateIndexMode{core.CandIndexOff, core.CandIndexPrune} {
				centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
					MaxIter:        50,
					Parallelism:    workers,
					CandidateIndex: mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				if refCenters == nil {
					refCenters, refCost = centers, cost
					continue
				}
				sameTrajectory[int](t, space, "finite trial", centers, refCenters, cost, refCost)
			}
		}
	}
}

// TestDefaultModeIsPrune pins the resolution chain: a zero-valued
// LocalSearchOptions must behave exactly like an explicit CandIndexPrune
// (and therefore exactly like CandIndexOff, by the equality pin above).
func TestDefaultModeIsPrune(t *testing.T) {
	ctx := context.Background()
	pts, cands, k := lsInstance(t, 777)
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	cDef, costDef, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	cOff, costOff, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
		MaxIter: 50, CandidateIndex: core.CandIndexOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory[geom.Vec](t, euclid, "default-vs-off", cDef, cOff, costDef, costOff)
}

// TestApproxModeSane checks the approximate mode's contract: it returns a
// valid center set whose reported cost is the exact unassigned E-cost of
// those centers (the approximation is in the search, never the evaluation).
func TestApproxModeSane(t *testing.T) {
	ctx := context.Background()
	pts, cands, k := lsInstance(t, 301)
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
		MaxIter:        50,
		CandidateIndex: core.CandIndexApprox,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > k {
		t.Fatalf("approx returned %d centers, want 1..%d", len(centers), k)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost < 0 {
		t.Fatalf("approx cost = %g", cost)
	}
	exact, err := core.EcostUnassigned[geom.Vec](euclid, pts, centers)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(cost, exact) > 1e-12 {
		t.Fatalf("approx reported cost %g, exact E-cost of its centers %g", cost, exact)
	}
	// Approx is deterministic too: same instance, same trajectory every run
	// and for every worker count.
	for _, workers := range []int{1, 4, 8} {
		c2, cost2, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
			MaxIter:        50,
			Parallelism:    workers,
			CandidateIndex: core.CandIndexApprox,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory[geom.Vec](t, euclid, "approx determinism", c2, centers, cost2, cost)
	}
}

// TestCandGraphProperties pins the neighborhood graph's structural contract:
// deterministic across rebuilds and worker counts, no self-loops, no
// duplicate neighbors, degree capped at m−1.
func TestCandGraphProperties(t *testing.T) {
	ctx := context.Background()
	pts, cands, _ := lsInstance(t, 401)
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	m := len(cands)
	// Non-default degree bypasses the memo cell, so each call is a genuine
	// rebuild — determinism is a property of the build, not pointer reuse.
	const degree = 5
	var ref *core.CandGraph
	for _, workers := range []int{1, 4, 8} {
		g, err := c.CandGraph(ctx, degree, workers)
		if err != nil {
			t.Fatal(err)
		}
		wantDeg := degree
		if wantDeg > m-1 {
			wantDeg = m - 1
		}
		if g.Degree() != wantDeg {
			t.Fatalf("degree = %d, want %d", g.Degree(), wantDeg)
		}
		for cd := 0; cd < m; cd++ {
			nbrs := g.Neighbors(cd)
			if len(nbrs) != wantDeg {
				t.Fatalf("cand %d: %d neighbors, want %d", cd, len(nbrs), wantDeg)
			}
			seen := map[int32]bool{}
			for _, nb := range nbrs {
				if nb == int32(cd) {
					t.Fatalf("cand %d: self-loop", cd)
				}
				if seen[nb] {
					t.Fatalf("cand %d: duplicate neighbor %d", cd, nb)
				}
				seen[nb] = true
			}
		}
		if ref == nil {
			ref = g
			continue
		}
		for cd := 0; cd < m; cd++ {
			a, b := g.Neighbors(cd), ref.Neighbors(cd)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d cand %d neighbor %d: %d != ref %d", workers, cd, i, a[i], b[i])
				}
			}
		}
	}
}

// TestCandIndexCacheAccounting pins the byte-accounting contract: approx
// mode's pivots and graph show up in CacheBytes with their exact Bytes()
// and vanish after DropCaches.
func TestCandIndexCacheAccounting(t *testing.T) {
	ctx := context.Background()
	pts, cands, _ := lsInstance(t, 501)
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	before := c.CacheBytes()
	ix, err := c.CandIndex(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.CandGraph(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(len(cands))
	p := int64(len(ix.Pivots()))
	if want := 4 * p; ix.Bytes() != want {
		t.Fatalf("index Bytes = %d, want %d (4·%d)", ix.Bytes(), want, p)
	}
	if want := 4 * int64(g.Degree()) * m; g.Bytes() != want {
		t.Fatalf("graph Bytes = %d, want %d (4·%d·%d)", g.Bytes(), want, g.Degree(), m)
	}
	if after := c.CacheBytes(); after != before+ix.Bytes()+g.Bytes() {
		t.Fatalf("CacheBytes %d → %d, want growth %d", before, after, ix.Bytes()+g.Bytes())
	}
	c.DropCaches()
	if got := c.CacheBytes(); got != 0 {
		t.Fatalf("CacheBytes after DropCaches = %d, want 0", got)
	}
	// The dropped cells rebuild on demand, bit-identically.
	ix2, err := c.CandIndex(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix2 == ix {
		t.Fatal("post-drop CandIndex returned the evicted pointer")
	}
	if !slices.Equal(ix2.Pivots(), ix.Pivots()) {
		t.Fatalf("rebuilt index differs: pivots %v vs %v", ix2.Pivots(), ix.Pivots())
	}
}

// attrTracer captures span attributes by span name.
type attrTracer struct {
	mu    sync.Mutex
	spans map[string][][]obs.Attr
}

func (a *attrTracer) Span(name, _ string, _ time.Time, _ time.Duration, attrs []obs.Attr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spans == nil {
		a.spans = map[string][][]obs.Attr{}
	}
	cp := append([]obs.Attr(nil), attrs...)
	a.spans[name] = append(a.spans[name], cp)
}

// TestPruneSpanEvidence proves pruning actually happens and is accounted:
// the ls.prune span fires once per descent with scanned > 0 and pruned > 0
// on a clustered instance, and every scanned candidate is either pruned or
// a bound failure: pruned + bound_failures = scanned.
func TestPruneSpanEvidence(t *testing.T) {
	tr := &attrTracer{}
	ctx := obs.NewContext(context.Background(), tr)
	rng := rand.New(rand.NewSource(601))
	pts, err := gen.GaussianClusters(rng, 40, 3, 2, 4, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cands := uncertain.AllLocations(pts)
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.SolveUnassignedLSCompiled(ctx, c, 4, core.LocalSearchOptions{MaxIter: 50}); err != nil {
		t.Fatal(err)
	}
	spans := tr.spans["ls.prune"]
	if len(spans) != 2 {
		t.Fatalf("ls.prune fired %d times, want 2 (one per seed descent)", len(spans))
	}
	var scanned, pruned, failures int64
	for _, attrs := range spans {
		for _, a := range attrs {
			switch a.Key {
			case "scanned":
				scanned += a.Val
			case "pruned":
				pruned += a.Val
			case "bound_failures":
				failures += a.Val
			default:
				t.Fatalf("ls.prune attribute %q, want scanned, pruned, bound_failures", a.Key)
			}
		}
	}
	if scanned <= 0 {
		t.Fatalf("scanned = %d, want > 0", scanned)
	}
	if pruned <= 0 {
		t.Fatalf("pruned = %d, want > 0 (bound never fired on a clustered instance)", pruned)
	}
	if pruned+failures != scanned {
		t.Fatalf("pruned %d + bound_failures %d != scanned %d", pruned, failures, scanned)
	}
}

// TestPruneMassDeficitK1 is the regression pin for pruning at k = 1 on
// valid input whose point masses fall short of 1. Each of 100 points puts
// three atoms at one site with p = 0.3333333333, so its mass is 1 − 1e-10
// and the sweep's total mass G∞ is about 1 − 1e-8. The far point at
// (100, 0) sets the cost, about G∞·d; moving the center from (0, 0) to
// (5e-7, 0) cuts it from ≈ 99.999999 to ≈ 99.9999985, more than the 1e-9
// acceptance slack. A bound that counts each point's mass but not G∞ —
// max_i E[d(X_i, c)] — puts (5e-7, 0) at ≈ 99.99999949, above the
// incumbent's exact cost, pruning the improving swap. The default scan must
// land where the oracle does.
func TestPruneMassDeficitK1(t *testing.T) {
	ctx := context.Background()
	const p = 0.3333333333
	site := func(x, y float64) uncertain.Point[geom.Vec] {
		loc := geom.Vec{x, y}
		return uncertain.Point[geom.Vec]{Locs: []geom.Vec{loc, loc, loc}, Probs: []float64{p, p, p}}
	}
	pts := []uncertain.Point[geom.Vec]{site(-1, 0), site(100, 0)}
	for j := 0; j < 98; j++ {
		pts = append(pts, site(-0.5+0.01*float64(j%10), -0.5+0.01*float64(j/10)))
	}
	cands := []geom.Vec{{0, 0}, {5e-7, 0}}
	for j := 0; j < 20; j++ {
		a := 2 * math.Pi * float64(j) / 20
		cands = append(cands, geom.Vec{1000 * math.Cos(a), 1000 * math.Sin(a)})
	}
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	ref, refCost, err := core.SolveUnassignedLSCompiled(ctx, c, 1, core.LocalSearchOptions{CandidateIndex: core.CandIndexOff})
	if err != nil {
		t.Fatal(err)
	}
	if euclid.Dist(ref[0], geom.Vec{5e-7, 0}) != 0 {
		t.Fatalf("oracle center %v, want (5e-7, 0)", ref[0])
	}
	centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, 1, core.LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory[geom.Vec](t, euclid, "default", centers, ref, cost, refCost)
}
