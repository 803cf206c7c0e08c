package core_test

// Tests for the cache byte accounting and eviction hooks behind the serving
// layer's byte-budget LRU: CacheBytes follows the DESIGN.md §4a formula
// exactly, DropCaches returns it to zero while keeping the arena, and a
// post-drop solve is bit-identical to the pre-drop one.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
)

// cacheTestInstance compiles a small random Euclidean instance with the
// default all-locations candidate set.
func cacheTestInstance(t *testing.T, n, z int) *core.Compiled[geom.Vec] {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pts, err := gen.GaussianClusters(rng, n, z, 2, 3, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile[geom.Vec](context.Background(), euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheBytesFormula(t *testing.T) {
	ctx := context.Background()
	c := cacheTestInstance(t, 30, 4)
	if got := c.CacheBytes(); got != 0 {
		t.Fatalf("fresh compile: CacheBytes = %d, want 0 (caches are lazy)", got)
	}

	// One surrogate slice: n elements of (slice header + 8·dim payload).
	if _, err := c.Surrogates(ctx, core.SurrogateExpectedPoint, nil, 1); err != nil {
		t.Fatal(err)
	}
	perElem := int64(24 + 8*c.Dim()) // Vec slice header + d float64 coordinates
	want := int64(c.NumPoints()) * perElem
	if got := c.CacheBytes(); got != want {
		t.Fatalf("after P̄ build: CacheBytes = %d, want %d", got, want)
	}

	// An unassigned solve adds only its seeds' 1-center surrogate slice:
	// the swap evaluator stores no distances, so nothing else is cached.
	if _, _, err := core.SolveUnassignedLSCompiled(ctx, c, 3, core.LocalSearchOptions{MaxIter: 3}); err != nil {
		t.Fatal(err)
	}
	want += int64(c.NumPoints()) * perElem
	if got := c.CacheBytes(); got != want {
		t.Fatalf("after an unassigned solve: CacheBytes = %d, want %d", got, want)
	}
}

func TestDropCachesReleasesAndRebuildsBitIdentical(t *testing.T) {
	ctx := context.Background()
	c := cacheTestInstance(t, 25, 3)
	k := 3

	// Warm every cache a solve exercises, then record reference results.
	opts := core.Options{Surrogate: core.SurrogateOneCenter, Rule: core.RuleOC}
	warm, err := core.SolveCompiled(ctx, c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmC, warmCost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheBytes() == 0 {
		t.Fatal("CacheBytes = 0 after solves that build surrogates")
	}

	c.DropCaches()
	if got := c.CacheBytes(); got != 0 {
		t.Fatalf("CacheBytes = %d after DropCaches, want 0", got)
	}
	// The arena survives the drop: no recompilation, same flat model.
	if c.NumAtoms() == 0 || c.NumPoints() != 25 {
		t.Fatalf("arena damaged by DropCaches: n=%d N=%d", c.NumPoints(), c.NumAtoms())
	}

	// Post-drop solves rebuild lazily and must be bit-identical.
	cold, err := core.SolveCompiled(ctx, c, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Ecost != warm.Ecost || cold.EcostUnassigned != warm.EcostUnassigned || cold.CertainRadius != warm.CertainRadius {
		t.Fatalf("post-drop solve differs: ecost %v vs %v, unassigned %v vs %v",
			cold.Ecost, warm.Ecost, cold.EcostUnassigned, warm.EcostUnassigned)
	}
	for i := range warm.Centers {
		if cold.Centers[i] != nil && warm.Centers[i] != nil {
			for d := range warm.Centers[i] {
				if cold.Centers[i][d] != warm.Centers[i][d] {
					t.Fatalf("post-drop center %d differs: %v vs %v", i, cold.Centers[i], warm.Centers[i])
				}
			}
		}
	}
	for i := range warm.Assign {
		if cold.Assign[i] != warm.Assign[i] {
			t.Fatalf("post-drop assignment differs at %d", i)
		}
	}
	coldC, coldCost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if coldCost != warmCost {
		t.Fatalf("post-drop unassigned cost %v, want %v", coldCost, warmCost)
	}
	for i := range warmC {
		for d := range warmC[i] {
			if coldC[i][d] != warmC[i][d] {
				t.Fatalf("post-drop unassigned center %d differs", i)
			}
		}
	}
	// And the caches are warm again after the rebuild.
	if c.CacheBytes() == 0 {
		t.Fatal("CacheBytes = 0 after post-drop solves")
	}
}

func TestDropCachesConcurrentWithSolves(t *testing.T) {
	// Eviction racing solves must never corrupt results: run solves on
	// several goroutines while another drops caches repeatedly, then check
	// the final answer against an undisturbed instance.
	ctx := context.Background()
	c := cacheTestInstance(t, 20, 3)
	ref := cacheTestInstance(t, 20, 3)
	opts := core.Options{Surrogate: core.SurrogateOneCenter, Rule: core.RuleOC}
	want, err := core.SolveCompiled(ctx, ref, 2, opts)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c.DropCaches()
		}
	}()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				res, err := core.SolveCompiled(ctx, c, 2, opts)
				if err != nil {
					errs <- err
					return
				}
				if res.Ecost != want.Ecost {
					errs <- errMismatch(res.Ecost, want.Ecost)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

type mismatchError struct{ got, want float64 }

func (e mismatchError) Error() string { return "ecost mismatch under concurrent DropCaches" }

func errMismatch(got, want float64) error { return mismatchError{got, want} }
