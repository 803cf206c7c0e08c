package ukc_test

// BenchmarkObsOverhead pins the tentpole claim of the observability layer:
// with no tracer installed the instrumented hot paths cost nothing — same
// allocs/op and ≤1% time vs the uninstrumented baseline recorded in
// BENCH_PR5.json — and even a live tracer adds only span-proportional
// work, not per-atom work. `make bench` runs it.

import (
	"context"
	"testing"
	"time"

	ukc "repro"
	"repro/obs"
)

// nopTracer is the cheapest possible live tracer: the spans are produced
// (clock reads, attr copies) but go nowhere, isolating the producer-side
// overhead from any consumer cost.
type nopTracer struct{}

func (nopTracer) Span(string, time.Time, time.Duration, []obs.Attr) {}

func BenchmarkObsOverhead(b *testing.B) {
	ctx := context.Background()
	pts := benchEuclidean(b, 150, 4, 2)

	solveLoop := func(solver *ukc.Solver[ukc.Vec]) func(b *testing.B) {
		return func(b *testing.B) {
			shared := ukc.NewEuclideanInstance(pts)
			if _, err := shared.Compile(ctx); err != nil {
				b.Fatal(err)
			}
			if _, err := solver.Solve(ctx, shared, 4); err != nil { // warm every memoized cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := solver.Solve(ctx, shared, 4)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += res.Ecost
			}
		}
	}
	unassignedLoop := func(solver *ukc.Solver[ukc.Vec]) func(b *testing.B) {
		return func(b *testing.B) {
			shared := ukc.NewEuclideanInstance(pts)
			if _, _, err := solver.SolveUnassigned(ctx, shared, 3); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cost, err := solver.SolveUnassigned(ctx, shared, 3)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += cost
			}
		}
	}

	b.Run("solve-off", solveLoop(ukc.NewSolver[ukc.Vec]()))
	b.Run("solve-on", solveLoop(ukc.NewSolver[ukc.Vec](ukc.WithTracer(nopTracer{}))))
	b.Run("unassigned-off", unassignedLoop(ukc.NewSolver[ukc.Vec]()))
	b.Run("unassigned-on", unassignedLoop(ukc.NewSolver[ukc.Vec](ukc.WithTracer(nopTracer{}))))
}
