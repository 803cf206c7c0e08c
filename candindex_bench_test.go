package ukc_test

// The swap-scan acceptance benchmark: the n = m = 1000 swap-scan wall,
// measured with pruning off (the unpruned cached scan, the reference) and on
// (bit-identical, must skip ≥ 50% of candidate evaluations here). `make
// bench-index` runs it once and prints the reported metrics:
//
//	ns/scan     — wall time per scan position (the per-scan old-vs-new axis)
//	prune_rate  — pruned / scanned candidate evaluations
//	cost_ratio  — final E-cost vs the unpruned trajectory's (exactly 1)

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	ukc "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/obs"
)

// benchIndexInstance is the acceptance instance: 1000 uncertain points,
// 1000 candidate locations.
func benchIndexInstance(b *testing.B) ukc.Instance[ukc.Vec] {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	pts, err := gen.GaussianClusters(rng, 1000, 3, 2, 8, 1, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	locs := make([]ukc.Vec, 0, 1000)
	for _, p := range pts {
		for _, loc := range p.Locs {
			if len(locs) == cap(locs) {
				break
			}
			locs = append(locs, loc)
		}
	}
	return ukc.NewInstance[ukc.Vec](ukc.Euclidean{}, pts, locs)
}

// scanCounter tallies descent positions and prune outcomes from the solver's
// ls.iter / ls.prune spans.
type scanCounter struct {
	mu        sync.Mutex
	positions int64 // scan positions completed (k per completed swap round)
	scanned   int64
	pruned    int64
}

func (s *scanCounter) Span(name, _ string, _ time.Time, _ time.Duration, attrs []obs.Attr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch name {
	case "ls.descent":
		var k, iters int64
		for _, a := range attrs {
			switch a.Key {
			case "k":
				k = a.Val
			case "iters":
				iters = a.Val
			}
		}
		s.positions += k * iters
	case "ls.prune":
		for _, a := range attrs {
			switch a.Key {
			case "scanned":
				s.scanned += a.Val
			case "pruned":
				s.pruned += a.Val
			}
		}
	}
}

// BenchmarkCandIndexScan is the off/prune sweep on the n = m = 1000
// instance. Sub-bench names are stable identifiers for BENCH_PR9.json. The
// unpruned scan is not a public option, so both rows call the core local
// search with the options Solver.SolveUnassigned passes, plus DisablePrune.
func BenchmarkCandIndexScan(b *testing.B) {
	const k = 8
	ctx := context.Background()
	c, err := benchIndexInstance(b).Compile(ctx)
	if err != nil {
		b.Fatal(err)
	}

	// The unpruned trajectory's cost, computed once, anchors every cost_ratio.
	_, exactCost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{Parallelism: 1, DisablePrune: true})
	if err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name         string
		disablePrune bool
	}{
		{"off", true},
		{"prune", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := &scanCounter{}
			tctx := obs.NewContext(ctx, sc)
			opts := core.LocalSearchOptions{Parallelism: 1, DisablePrune: bc.disablePrune}
			var cost float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cst, err := core.SolveUnassignedLSCompiled(tctx, c, k, opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = cst
			}
			b.StopTimer()
			if sc.positions > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sc.positions), "ns/scan")
			}
			if sc.scanned > 0 {
				rate := float64(sc.pruned) / float64(sc.scanned)
				b.ReportMetric(rate, "prune_rate")
				if rate < 0.5 {
					b.Fatalf("prune_rate = %.3f, acceptance floor is 0.50", rate)
				}
			}
			b.ReportMetric(cost/exactCost, "cost_ratio")
			if cost != exactCost {
				b.Fatalf("%s cost %g != unpruned %g (trajectory diverged)", bc.name, cost, exactCost)
			}
		})
	}
}
