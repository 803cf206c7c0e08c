package ukc_test

// The PR-9 acceptance benchmark: the n = m = 1000 swap-scan wall, measured
// with the candidate index off (the PR-3 oracle), pruning (bit-identical,
// must skip ≥ 50% of candidate evaluations here), and approximate
// (neighborhood-restricted, cost ratio reported). `make bench-index` runs it
// once and prints the reported metrics:
//
//	ns/scan     — wall time per scan position (the per-scan old-vs-new axis)
//	prune_rate  — pruned / scanned candidate evaluations
//	cost_ratio  — final E-cost vs the exact trajectory's (1.0 for off/prune)
//
// so one file carries the whole quality/speed story.

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

// BenchmarkCandIndexScan is the off/prune/approx sweep on the n = m = 1000
// instance. Sub-bench names are stable identifiers for BENCH_PR9.json.
func BenchmarkCandIndexScan(b *testing.B) {
	const k = 8
	ctx := context.Background()
	inst := benchIndexInstance(b)

	// Exact-trajectory cost, computed once, anchors every cost_ratio.
	exactSolver := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(1))
	_, exactCost, err := exactSolver.SolveUnassignedMode(ctx, inst, k, core.CandIndexOff)
	if err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name string
		mode ukc.CandidateIndexMode
	}{
		{"off", core.CandIndexOff},
		{"prune", ukc.CandIndexPrune},
		{"approx", ukc.CandIndexApprox},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := &scanCounter{}
			solver := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(1), ukc.WithTracer(sc))
			var cost float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, c, err := solver.SolveUnassignedMode(ctx, inst, k, bc.mode)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.StopTimer()
			if sc.positions > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sc.positions), "ns/scan")
			}
			if sc.scanned > 0 {
				rate := float64(sc.pruned) / float64(sc.scanned)
				b.ReportMetric(rate, "prune_rate")
				if bc.mode == ukc.CandIndexPrune && rate < 0.5 {
					b.Fatalf("prune_rate = %.3f, acceptance floor is 0.50", rate)
				}
			}
			b.ReportMetric(cost/exactCost, "cost_ratio")
			if bc.mode != ukc.CandIndexApprox && cost != exactCost {
				b.Fatalf("mode %v cost %g != exact %g (trajectory diverged)", bc.mode, cost, exactCost)
			}
		})
	}
}
