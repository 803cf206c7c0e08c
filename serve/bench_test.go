package serve_test

// Serving-layer benchmarks (run by `make bench`): request throughput
// through the sharded admission/deadline/eviction machinery with the
// warm-cache hit rate reported per run, and the per-request overhead the
// serving layer adds over a direct Solver call.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	ukc "repro"
	"repro/internal/gen"
	"repro/serve"
)

func benchServer(b *testing.B, nInst int, budget int64) (*serve.Server[ukc.Vec], []string) {
	b.Helper()
	solver := ukc.NewSolver[ukc.Vec]()
	srv, err := serve.New(solver,
		serve.WithShards(4),
		serve.WithWorkersPerShard(2),
		serve.WithQueueDepth(1<<16),
		serve.WithCacheBudget(budget),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	names := make([]string, nInst)
	for i := range names {
		pts, err := gen.GaussianClusters(rng, 150, 4, 2, 4, 1, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		names[i] = fmt.Sprintf("bench-%d", i)
		if err := srv.Register(ctx, names[i], ukc.NewEuclideanInstance(pts)); err != nil {
			b.Fatal(err)
		}
	}
	return srv, names
}

// BenchmarkServeThroughput — the serving tentpole's headline number:
// concurrent mixed-k Solve requests round-robined across 8 registered
// instances on a 4-shard × 2-worker server. The "warm" case (no budget)
// runs at a near-1 hit rate — every request reuses the memoized surrogate
// caches; the "evict" case (1-byte budget) drops every instance's caches
// after each completed request, so every request rebuilds — the worst-case
// cold regime the eviction policy degrades to. hit-rate and evictions/op
// come from the server's own metrics.
func BenchmarkServeThroughput(b *testing.B) {
	for _, mode := range []struct {
		name   string
		budget int64
	}{
		{"warm", 0},
		{"evict", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			srv, names := benchServer(b, 8, mode.budget)
			ctx := context.Background()
			ks := []int{2, 4, 8}
			// Warm every instance once so "warm" measures steady state.
			for _, n := range names {
				if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: n, K: 4}); err != nil {
					b.Fatal(err)
				}
			}
			before := srv.Metrics().Totals()
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					req := serve.SolveRequest{Instance: names[i%len(names)], K: ks[i%len(ks)]}
					if _, err := srv.Solve(ctx, req); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			after := srv.Metrics().Totals()
			hits := after.CacheHits - before.CacheHits
			misses := after.CacheMisses - before.CacheMisses
			if hits+misses > 0 {
				b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
			}
			if b.N > 0 {
				b.ReportMetric(float64(after.Evictions-before.Evictions)/float64(b.N), "evictions/op")
			}
		})
	}
}

// BenchmarkServeOverhead — what admission, deadline layering, queueing and
// metrics cost per request: the same warm-instance Solve issued directly on
// the solver versus through the server, single caller.
func BenchmarkServeOverhead(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	pts, err := gen.GaussianClusters(rng, 150, 4, 2, 4, 1, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	inst := ukc.NewEuclideanInstance(pts)
	solver := ukc.NewSolver[ukc.Vec]()

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(ctx, inst, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("served", func(b *testing.B) {
		srv, err := serve.New(solver)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		if err := srv.Register(ctx, "one", inst); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: "one", K: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeUnassignedWarm — the heaviest cacheable workload through
// the server: unassigned local search, where the warm path reuses the
// memoized 8·m·N distance-RV evaluator across every request.
func BenchmarkServeUnassignedWarm(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	pts, err := gen.GaussianClusters(rng, 24, 3, 2, 3, 1, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(2))
	srv, err := serve.New(solver)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Register(ctx, "one", ukc.NewEuclideanInstance(pts)); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "one", K: 3}); err != nil {
		b.Fatal(err)
	}
	before := srv.Metrics().Totals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "one", K: 2 + i%3}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := srv.Metrics().Totals()
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
	}
}
