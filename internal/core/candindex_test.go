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
			for _, disablePrune := range []bool{true, false} {
				centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
					MaxIter:      50,
					Parallelism:  workers,
					DisablePrune: disablePrune,
				})
				if err != nil {
					t.Fatal(err)
				}
				if refCenters == nil {
					refCenters, refCost = centers, cost
					continue
				}
				if cost != refCost || len(centers) != len(refCenters) {
					t.Fatalf("seed %d workers %d DisablePrune %v: cost %g (ref %g), %d centers (ref %d)",
						seed, workers, disablePrune, cost, refCost, len(centers), len(refCenters))
				}
				for i := range centers {
					if euclid.Dist(centers[i], refCenters[i]) != 0 {
						t.Fatalf("seed %d workers %d DisablePrune %v: center %d = %v != ref %v",
							seed, workers, disablePrune, i, centers[i], refCenters[i])
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
			for _, disablePrune := range []bool{true, false} {
				centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
					MaxIter:      50,
					Parallelism:  workers,
					DisablePrune: disablePrune,
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

// TestDefaultModeIsPrune pins the zero value: a zero-valued
// LocalSearchOptions prunes (TestPruneSpanEvidence counts its ls.prune
// spans) and lands exactly where the unpruned scan does.
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
		MaxIter: 50, DisablePrune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory[geom.Vec](t, euclid, "default-vs-off", cDef, cOff, costDef, costOff)
}

// TestCandIndexCacheAccounting pins the byte-accounting contract: the
// CandIndex pivots show up in CacheBytes with their exact Bytes() and
// vanish after DropCaches.
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
	p := int64(len(ix.Pivots()))
	if want := 4 * p; ix.Bytes() != want {
		t.Fatalf("index Bytes = %d, want %d (4·%d)", ix.Bytes(), want, p)
	}
	if after := c.CacheBytes(); after != before+ix.Bytes() {
		t.Fatalf("CacheBytes %d → %d, want growth %d", before, after, ix.Bytes())
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

func (a *attrTracer) Span(name string, _ time.Time, _ time.Duration, attrs []obs.Attr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spans == nil {
		a.spans = map[string][][]obs.Attr{}
	}
	a.spans[name] = append(a.spans[name], attrs)
}

// TestPruneSpanEvidence proves pruning actually happens and is accounted:
// the ls.prune span fires once per descent with scanned > 0, pruned > 0 and
// excess > 0 on a clustered instance, and every scanned candidate is
// pruned by the t*·G∞ bound, skipped by the expected-excess certificate,
// or a bound failure: pruned + excess + bound_failures = scanned. With
// DisablePrune it does not fire.
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
	var scanned, pruned, excess, failures int64
	for _, attrs := range spans {
		for _, a := range attrs {
			switch a.Key {
			case "scanned":
				scanned += a.Val
			case "pruned":
				pruned += a.Val
			case "excess":
				excess += a.Val
			case "bound_failures":
				failures += a.Val
			default:
				t.Fatalf("ls.prune attribute %q, want scanned, pruned, excess, bound_failures", a.Key)
			}
		}
	}
	if scanned <= 0 {
		t.Fatalf("scanned = %d, want > 0", scanned)
	}
	if pruned <= 0 {
		t.Fatalf("pruned = %d, want > 0 (bound never fired on a clustered instance)", pruned)
	}
	if excess <= 0 {
		t.Fatalf("excess = %d, want > 0 (certificate never fired on a clustered instance)", excess)
	}
	if pruned+excess+failures != scanned {
		t.Fatalf("pruned %d + excess %d + bound_failures %d != scanned %d", pruned, excess, failures, scanned)
	}
	// DisablePrune is the reference the trajectory-equality tests compare
	// against, so it must really scan unpruned: no ls.prune span.
	if _, _, err := core.SolveUnassignedLSCompiled(ctx, c, 4, core.LocalSearchOptions{MaxIter: 50, DisablePrune: true}); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.spans["ls.prune"]); n != 2 {
		t.Fatalf("DisablePrune emitted %d ls.prune spans, want none", n-2)
	}
}

// TestPruneSpanOverflowCountsBoundFailures pins the prune accounting to
// where each tier fires. Point 0's atom at (1e300, 1e300) is at distance
// +Inf from every candidate, so every center set costs +Inf: θ = +Inf, the
// expected-excess expression is NaN, and nothing can be certified. Every
// scanned candidate was evaluated exactly and is a bound failure, although
// its cost is +Inf like a skipped candidate's.
func TestPruneSpanOverflowCountsBoundFailures(t *testing.T) {
	tr := &attrTracer{}
	ctx := obs.NewContext(context.Background(), tr)
	pts := []uncertain.Point[geom.Vec]{
		{Locs: []geom.Vec{{0, 0}, {1e300, 1e300}}, Probs: []float64{0.5, 0.5}},
		{Locs: []geom.Vec{{1, 2}, {3, 1}}, Probs: []float64{0.5, 0.5}},
		{Locs: []geom.Vec{{-4, 2}, {-2, 5}}, Probs: []float64{0.25, 0.75}},
		{Locs: []geom.Vec{{6, -3}, {5, -6}}, Probs: []float64{0.5, 0.5}},
	}
	cands := []geom.Vec{{0, 0}, {1, 1}, {-3, 3}, {5, -5}, {2, 0}, {-1, -1}, {4, 4}, {0, 7}}
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	_, cost, err := core.SolveUnassignedLSCompiled(ctx, c, 2, core.LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(cost, 1) {
		t.Fatalf("cost = %g, want +Inf", cost)
	}
	spans := tr.spans["ls.prune"]
	if len(spans) != 2 {
		t.Fatalf("ls.prune fired %d times, want 2 (one per seed descent)", len(spans))
	}
	want := map[string]int64{"scanned": 12, "pruned": 0, "excess": 0, "bound_failures": 12}
	for d, attrs := range spans {
		for _, a := range attrs {
			if a.Val != want[a.Key] {
				t.Errorf("descent %d: %s = %d, want %d", d, a.Key, a.Val, want[a.Key])
			}
		}
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
	ref, refCost, err := core.SolveUnassignedLSCompiled(ctx, c, 1, core.LocalSearchOptions{DisablePrune: true})
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

// TestPruneExcessMassDeficit pins the expected-excess certificate's G∞/m̃_i
// factor. As in TestPruneMassDeficitK1, 99 points near the origin each
// carry mass 1 − 1e-10, so G∞ ≈ 1 − 9.9e-9, but the far point at (100, 0)
// has mass exactly 1: its own m̃ is 1, and only the other points' deficits
// lower the cost, about G∞·d(far, c). Moving the center from (0, 0) to
// (5e-7, 0) improves it by 5e-9 relative, past the 1e-9 slack, and t*·G∞
// is below the incumbent's cost, so the excess tier decides. Without the
// factor the far point's bound would be d(far, c) ≈ 99.9999995 itself,
// above the incumbent's ≈ 99.999999, and the improving swap would be
// skipped. The default scan must land where the unpruned one does.
func TestPruneExcessMassDeficit(t *testing.T) {
	ctx := context.Background()
	const p = 0.3333333333
	site := func(x, y float64) uncertain.Point[geom.Vec] {
		loc := geom.Vec{x, y}
		return uncertain.Point[geom.Vec]{Locs: []geom.Vec{loc, loc, loc}, Probs: []float64{p, p, p}}
	}
	pts := []uncertain.Point[geom.Vec]{site(-1, 0), {Locs: []geom.Vec{{100, 0}}, Probs: []float64{1}}}
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
	ref, refCost, err := core.SolveUnassignedLSCompiled(ctx, c, 1, core.LocalSearchOptions{DisablePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if euclid.Dist(ref[0], geom.Vec{5e-7, 0}) != 0 {
		t.Fatalf("unpruned center %v, want (5e-7, 0)", ref[0])
	}
	centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, 1, core.LocalSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory[geom.Vec](t, euclid, "default", centers, ref, cost, refCost)
}

// TestPruneExcessMassSurplus pins the certificate's max(0, mass_i − 1)·vmax_i
// term. One point has atoms a = (0, 0) and b = (10, 0) with masses
// 0.5 + 0.89e-9 and 0.5 + 1e-10, 1 + 0.99e-9 in all, which the kernel clamps
// to 1. With the center at b the cost is 10·(1 − p_b); swapping in a costs
// 10·(1 − p_a), better by 1.98e-9 relative, past the 1e-9 slack. The
// unclamped Σ_f p_f·v_f of a is 10·p_b, above the incumbent's cost: only
// the surplus term, 10·0.99e-9, brings a's bound under it. Armed at the
// incumbent's cost, EvalSwap must still return a's exact cost.
func TestPruneExcessMassSurplus(t *testing.T) {
	ctx := context.Background()
	pts := []uncertain.Point[geom.Vec]{{Locs: []geom.Vec{{0, 0}, {10, 0}}, Probs: []float64{0.5 + 0.89e-9, 0.5 + 1e-10}}}
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, []geom.Vec{{10, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.Evaluator(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, s := new(core.SwapBase), new(core.SwapScratch)
	ev.PrepareBase(base, []int{0}, 0)
	cost0 := ev.EvalSwap(base, s, 0)
	want := ev.EvalSwap(base, s, 1)
	if !(want < cost0*(1-1e-9)) {
		t.Fatalf("swap cost %.17g does not improve on %.17g past the slack", want, cost0)
	}
	ev.SetThreshold(base, cost0)
	if got := ev.EvalSwap(base, s, 1); got != want {
		t.Fatalf("armed at %.17g: EvalSwap = %.17g, exact %.17g", cost0, got, want)
	}
}
