package core_test

// Tests for the compiled-instance core: the compile boundary (validation,
// pruning, flattening), cache reuse observability, concurrency of first
// use, and the bit-identity of cached vs fresh-compile solves.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// zeroAtomInstance is a small fixed Euclidean instance in which several
// points carry explicit zero-probability atoms — the compile-time-pruning
// regression fixture.
func zeroAtomInstance() []uncertain.Point[geom.Vec] {
	return []uncertain.Point[geom.Vec]{
		{Locs: []geom.Vec{{0, 0}, {9, 9}, {1, 0}}, Probs: []float64{0.5, 0, 0.5}},
		{Locs: []geom.Vec{{4, 4}}, Probs: []float64{1}},
		{Locs: []geom.Vec{{-3, 1}, {-2, 2}, {100, 100}, {-1, 0}}, Probs: []float64{0.25, 0.25, 0, 0.5}},
		{Locs: []geom.Vec{{2, 5}, {3, 5}}, Probs: []float64{0.75, 0.25}},
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	ctx := context.Background()
	if _, err := core.Compile[geom.Vec](ctx, nil, zeroAtomInstance(), nil); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := core.Compile[geom.Vec](ctx, euclid, nil, nil); err == nil {
		t.Error("empty point set accepted")
	}
	bad := []uncertain.Point[geom.Vec]{{Locs: []geom.Vec{{0, 0}}, Probs: []float64{0.4}}}
	if _, err := core.Compile[geom.Vec](ctx, euclid, bad, nil); err == nil {
		t.Error("probabilities summing to 0.4 accepted")
	}
	mism := []uncertain.Point[geom.Vec]{{Locs: []geom.Vec{{0, 0}, {1, 1}}, Probs: []float64{1}}}
	if _, err := core.Compile[geom.Vec](ctx, euclid, mism, nil); err == nil {
		t.Error("locs/probs length mismatch accepted")
	}
	// Heterogeneous coordinate dimensions must be rejected at the compile
	// boundary (CommonDim), even on zero-probability atoms.
	het := []uncertain.Point[geom.Vec]{
		{Locs: []geom.Vec{{0, 0}}, Probs: []float64{1}},
		{Locs: []geom.Vec{{1, 2, 3}}, Probs: []float64{1}},
	}
	if _, err := core.Compile[geom.Vec](ctx, euclid, het, nil); err == nil {
		t.Error("heterogeneous dimensions accepted")
	}
	hetZero := []uncertain.Point[geom.Vec]{
		{Locs: []geom.Vec{{0, 0}, {1, 2, 3}}, Probs: []float64{1, 0}},
	}
	if _, err := core.Compile[geom.Vec](ctx, euclid, hetZero, nil); err == nil {
		t.Error("heterogeneous dimension on a zero-probability atom accepted")
	}
}

// TestCompileRejectsPointsOutsideTheSpace: a candidate or location that is
// not a point of the space — a 3-D candidate among 2-D points, a vertex
// outside a finite space — is a compile error naming it, not a panic in
// the first solve.
func TestCompileRejectsPointsOutsideTheSpace(t *testing.T) {
	ctx := context.Background()
	cands := []geom.Vec{{0, 0}, {1, 2, 3}}
	if _, err := core.Compile[geom.Vec](ctx, euclid, zeroAtomInstance(), cands); err == nil ||
		!strings.Contains(err.Error(), "candidate 1 has dimension 3, want 2") {
		t.Errorf("3-D candidate among 2-D points: err = %v", err)
	}
	space, err := metricspace.NewFinite([][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pts := []uncertain.Point[int]{
		{Locs: []int{0, 1}, Probs: []float64{0.5, 0.5}},
		{Locs: []int{2, 1}, Probs: []float64{1, 0}},
	}
	if _, err := core.Compile[int](ctx, space, pts, []int{0, 7}); err == nil ||
		!strings.Contains(err.Error(), "candidate 1 is vertex 7") {
		t.Errorf("candidate 7 in a 3-vertex space: err = %v", err)
	}
	pts[1].Locs[1] = 9 // a zero-probability location is still a center site
	if _, err := core.Compile[int](ctx, space, pts, nil); err == nil ||
		!strings.Contains(err.Error(), "point 1 location 1 is vertex 9") {
		t.Errorf("location 9 in a 3-vertex space: err = %v", err)
	}
	pts[1].Locs[1] = -1
	if _, err := core.Compile[int](ctx, space, pts, nil); err == nil {
		t.Error("location -1 accepted")
	}
	pts[1].Locs[1] = 1
	if _, err := core.Compile[int](ctx, space, pts, []int{2, 0}); err != nil {
		t.Errorf("in-range instance rejected: %v", err)
	}
}

func TestCompileFlattensAndPrunes(t *testing.T) {
	pts := zeroAtomInstance()
	c, err := core.Compile[geom.Vec](context.Background(), euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumPoints(), 4; got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
	// 3+1+4+2 = 10 raw atoms, two with p = 0.
	if got, want := c.NumAtoms(), 8; got != want {
		t.Fatalf("NumAtoms = %d, want %d (zero atoms pruned)", got, want)
	}
	if got, want := c.MaxZ(), 3; got != want {
		t.Fatalf("MaxZ = %d, want %d (pruned supports)", got, want)
	}
	if got, want := c.Dim(), 2; got != want {
		t.Fatalf("Dim = %d, want %d", got, want)
	}
	if !c.IsEuclidean() {
		t.Fatal("IsEuclidean = false for Euclidean{}")
	}
	locs, probs, offsets, ptIdx := c.FlatAtoms()
	if len(locs) != 8 || len(probs) != 8 || len(ptIdx) != 8 || len(offsets) != 5 {
		t.Fatalf("flat lengths = %d/%d/%d/%d", len(locs), len(probs), len(ptIdx), len(offsets))
	}
	for f, pr := range probs {
		if pr <= 0 {
			t.Fatalf("atom %d has probability %g after pruning", f, pr)
		}
	}
	for i, p := range c.Points() {
		if int(offsets[i+1]-offsets[i]) != p.Z() {
			t.Fatalf("point %d: offsets span %d, Z %d", i, offsets[i+1]-offsets[i], p.Z())
		}
		for f := offsets[i]; f < offsets[i+1]; f++ {
			if int(ptIdx[f]) != i {
				t.Fatalf("atom %d: ptIdx %d, want %d", f, ptIdx[f], i)
			}
		}
		var sum float64
		for _, pr := range p.Probs {
			sum += pr
		}
		if relDiff(sum, 1) > 1e-9 {
			t.Fatalf("point %d: pruned probabilities sum to %g", i, sum)
		}
	}
	// With no explicit candidates, the default candidate set keeps every
	// input location — pruning removes probability mass, not center sites,
	// so a p = 0 location stays eligible as a center.
	if got := c.CandidatesOrLocations(); len(got) != 10 {
		t.Fatalf("CandidatesOrLocations len = %d, want 10 (zero-probability locations stay candidates)", len(got))
	}
}

// TestZeroProbAtomCostConsistency pins the satellite requirement: instances
// containing p = 0 atoms yield the same E-costs everywhere — compiled fast
// paths, the cached and from-scratch sweep paths, and the enumeration
// oracle (which keeps the zero atoms).
func TestZeroProbAtomCostConsistency(t *testing.T) {
	ctx := context.Background()
	pts := zeroAtomInstance()
	centers := []geom.Vec{{0, 0}, {3, 5}}
	assign := []int{0, 1, 0, 1}
	c := compile(t, euclid, pts, nil)

	gotA, err := c.EcostAssigned(ctx, centers, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := core.EcostAssignedNaive[geom.Vec](euclid, pts, centers, assign, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(gotA, wantA) > 1e-12 {
		t.Fatalf("EcostAssigned with zero atoms = %g, oracle = %g", gotA, wantA)
	}

	gotU, err := c.EcostUnassigned(ctx, centers, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := core.EcostUnassignedNaive[geom.Vec](euclid, pts, centers, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(gotU, wantU) > 1e-12 {
		t.Fatalf("EcostUnassigned with zero atoms = %g, oracle = %g", gotU, wantU)
	}

	// Incremental and from-scratch sweep paths must agree, bit for bit, on
	// the pruned support.
	cands := uncertain.AllLocations(pts)
	chosen := []int{0, 4}
	cached, err := core.EcostSweepCompiled(ctx, compile(t, euclid, pts, cands), chosen, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := core.EcostSweepCompiled(ctx, compile(t, euclid, pts, cands), chosen, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range cached {
		for cd := range cached[pos] {
			if cached[pos][cd] != scratch[pos][cd] {
				t.Fatalf("sweep[%d][%d]: cached %.17g vs scratch %.17g", pos, cd, cached[pos][cd], scratch[pos][cd])
			}
		}
	}

	// Local search: the incremental, pruned descent follows the from-scratch
	// oracle's trajectory on the zero-atom instance.
	for _, k := range []int{1, 2} {
		fast, fastCost, err := core.SolveUnassignedLSCompiled(ctx, compile(t, euclid, pts, cands), k, core.LocalSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracle, oracleCost, err := core.SolveUnassignedScratch(ctx, compile(t, euclid, pts, cands), k, 100)
		if err != nil {
			t.Fatal(err)
		}
		if fastCost != oracleCost {
			t.Fatalf("k=%d: incremental cost %.17g vs oracle %.17g", k, fastCost, oracleCost)
		}
		for i := range fast {
			if geom.Dist(fast[i], oracle[i]) != 0 {
				t.Fatalf("k=%d: incremental center %d = %v, oracle %v", k, i, fast[i], oracle[i])
			}
		}
	}
}

// TestCachedVsFreshSolveBitIdentical pins the tentpole contract: solving a
// compiled instance repeatedly (warm caches) returns results bit-identical
// to a fresh compile per solve, for workers ∈ {1, 4, 8}, across both
// regimes and both surrogate kinds.
func TestCachedVsFreshSolveBitIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(44))
	pts, err := gen.GaussianClusters(rng, 40, 3, 2, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fspace, fpts, fk := finiteInstance(t, rng)
	fcands := fspace.Points()

	for _, workers := range []int{1, 4, 8} {
		for _, surr := range []core.Surrogate{core.SurrogateExpectedPoint, core.SurrogateOneCenter} {
			opts := core.Options{Surrogate: surr, Rule: core.RuleED, Parallelism: workers}
			cached, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 3, 2} { // revisit k=2 with warm caches
				warm, err := core.SolveCompiled(ctx, cached, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				freshC, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := core.SolveCompiled(ctx, freshC, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				if warm.Ecost != fresh.Ecost || warm.EcostUnassigned != fresh.EcostUnassigned || warm.CertainRadius != fresh.CertainRadius {
					t.Fatalf("workers=%d surr=%v k=%d: warm costs (%g,%g,%g) != fresh (%g,%g,%g)",
						workers, surr, k, warm.Ecost, warm.EcostUnassigned, warm.CertainRadius,
						fresh.Ecost, fresh.EcostUnassigned, fresh.CertainRadius)
				}
				for i := range warm.Centers {
					if geom.Dist(warm.Centers[i], fresh.Centers[i]) != 0 {
						t.Fatalf("workers=%d surr=%v k=%d: center %d differs", workers, surr, k, i)
					}
				}
				for i := range warm.Assign {
					if warm.Assign[i] != fresh.Assign[i] {
						t.Fatalf("workers=%d surr=%v k=%d: assign %d differs", workers, surr, k, i)
					}
				}
			}
		}

		// Finite regime, including the unassigned local search.
		fopts := core.Options{Surrogate: core.SurrogateOneCenter, Rule: core.RuleED, Parallelism: workers}
		cached, err := core.Compile[int](ctx, fspace, fpts, fcands)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			warm, err := core.SolveCompiled(ctx, cached, fk, fopts)
			if err != nil {
				t.Fatal(err)
			}
			freshC, err := core.Compile[int](ctx, fspace, fpts, fcands)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := core.SolveCompiled(ctx, freshC, fk, fopts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Ecost != fresh.Ecost || warm.EcostUnassigned != fresh.EcostUnassigned {
				t.Fatalf("workers=%d finite rep=%d: warm (%g,%g) != fresh (%g,%g)",
					workers, rep, warm.Ecost, warm.EcostUnassigned, fresh.Ecost, fresh.EcostUnassigned)
			}
			for i := range warm.Centers {
				if warm.Centers[i] != fresh.Centers[i] {
					t.Fatalf("workers=%d finite rep=%d: center %d differs", workers, rep, i)
				}
			}

			lsWarm, lsWarmCost, err := core.SolveUnassignedLSCompiled(ctx, cached, fk, core.LocalSearchOptions{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			lsFresh, lsFreshCost, err := core.SolveUnassignedLSCompiled(ctx, freshC, fk, core.LocalSearchOptions{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if lsWarmCost != lsFreshCost {
				t.Fatalf("workers=%d finite rep=%d: LS warm cost %g != fresh %g", workers, rep, lsWarmCost, lsFreshCost)
			}
			for i := range lsWarm {
				if lsWarm[i] != lsFresh[i] {
					t.Fatalf("workers=%d finite rep=%d: LS center %d differs", workers, rep, i)
				}
			}
		}
	}
}

// countingSpace wraps an integer metric and counts Dist calls — the cache
// reuse observability probe.
type countingSpace struct {
	calls *atomic.Int64
}

func (s countingSpace) Dist(a, b int) float64 {
	s.calls.Add(1)
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// TestSurrogateAndEvaluatorCacheReuse pins the observability criterion: the
// second request for surrogates on one compiled instance performs ZERO
// metric calls — it is served from the memoized cache — and a swap
// evaluator request performs none at all, because the evaluator
// precomputes nothing: its distances are computed where a scan reads them.
func TestSurrogateAndEvaluatorCacheReuse(t *testing.T) {
	ctx := context.Background()
	var calls atomic.Int64
	space := countingSpace{calls: &calls}
	pts := []uncertain.Point[int]{
		{Locs: []int{0, 3}, Probs: []float64{0.5, 0.5}},
		{Locs: []int{7}, Probs: []float64{1}},
		{Locs: []int{2, 9, 4}, Probs: []float64{0.2, 0.3, 0.5}},
	}
	cands := []int{0, 2, 4, 6, 8}
	c, err := core.Compile[int](ctx, space, pts, cands)
	if err != nil {
		t.Fatal(err)
	}

	s1, err := c.Surrogates(ctx, core.SurrogateOneCenter, c.CandidatesOrLocations(), 1)
	if err != nil {
		t.Fatal(err)
	}
	after := calls.Load()
	if after == 0 {
		t.Fatal("surrogate construction made no metric calls — probe broken")
	}
	s2, err := c.Surrogates(ctx, core.SurrogateOneCenter, c.CandidatesOrLocations(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != after {
		t.Fatalf("second surrogate request made %d metric calls, want 0", got-after)
	}
	if &s1[0] != &s2[0] {
		t.Fatal("second surrogate request returned a different slice")
	}

	builds := c.CacheBuilds()
	for _, workers := range []int{1, 2, 8} {
		if _, err := c.Evaluator(ctx, workers); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != after {
		t.Fatalf("evaluator requests made %d metric calls, want 0", got-after)
	}
	if got := c.CacheBuilds(); got != builds {
		t.Fatalf("evaluator requests completed %d cache builds, want 0", got-builds)
	}
}

// TestCompiledConcurrentFirstUse drives the memoized caches from many
// goroutines at once (run under -race by make check): one build must win,
// every caller must observe identical results.
func TestCompiledConcurrentFirstUse(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(45))
	space, pts, k := finiteInstance(t, rng)
	cands := space.Points()
	c, err := core.Compile[int](ctx, space, pts, cands)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.SolveCompiled(ctx, c, k, core.Options{Surrogate: core.SurrogateOneCenter})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Fresh compiled value per goroutine pair so first-use of every
			// cache is genuinely contended on the shared one.
			res, err := core.SolveCompiled(ctx, c, k, core.Options{Surrogate: core.SurrogateOneCenter, Parallelism: 1 + g%3})
			if err != nil {
				errs[g] = err
				return
			}
			if res.Ecost != ref.Ecost || res.EcostUnassigned != ref.EcostUnassigned {
				errs[g] = fmt.Errorf("costs (%g,%g) != reference (%g,%g)", res.Ecost, res.EcostUnassigned, ref.Ecost, ref.EcostUnassigned)
				return
			}
			if _, _, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{Parallelism: 1 + g%3}); err != nil {
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
