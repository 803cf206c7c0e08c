package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
)

// TestUnassignedSolveAllocsLinear pins one cold unassigned solve's
// allocations at O(N + n) on DESIGN §7's worked example: n = 1000 points
// in R² with z = 8 and the default candidate set, so N = m = 8000, where a
// table of one distance per (candidate, atom) pair would be 8·m·N = 512 MB.
// The solve builds its seeds' surrogates and per-descent scan state and
// computes every candidate distance on demand.
func TestUnassignedSolveAllocsLinear(t *testing.T) {
	ctx := context.Background()
	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(7)), 1000, 8, 2, 64, 0.6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, N := uint64(c.NumPoints()), uint64(c.NumAtoms())
	if m := len(c.CandidatesOrLocations()); N != 8000 || m != 8000 {
		t.Fatalf("N = %d, m = %d, want 8000 each", N, m)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := core.SolveUnassignedLSCompiled(ctx, c, 2, core.LocalSearchOptions{MaxIter: 1, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one solve allocated %d bytes (N + n = %d)", got, N+n)
	if limit := 128 * (N + n); got > limit {
		t.Fatalf("one solve allocated %d bytes, want at most 128·(N + n) = %d", got, limit)
	}
}

// TestWarmUnassignedSolveAllocs pins a warm unassigned solve's allocations
// below one float per atom: its base, scratches and per-candidate rows come
// from the pooled scan state the previous solve put back, so what remains
// is O(k) — the seeds, the chosen indices and the returned centers. An
// unpooled solve allocates about 65 bytes per atom here.
func TestWarmUnassignedSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scan state at random")
	}
	ctx := context.Background()
	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(8)), 60, 4, 2, 32, 0.6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile[geom.Vec](ctx, euclid, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if _, _, err := core.SolveUnassignedLSCompiled(ctx, c, 4, core.LocalSearchOptions{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one warm solve allocated %d bytes (N = %d)", got, c.NumAtoms())
	if limit := 8 * uint64(c.NumAtoms()); got > limit {
		t.Fatalf("one warm solve allocated %d bytes, want at most 8·N = %d", got, limit)
	}
}
