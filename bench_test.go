package ukc_test

// One benchmark per Table 1 row (the paper's entire evaluation artifact),
// plus the runtime-scaling benches backing the O(z) / O(nz + n log k)
// claims, the exact-vs-Monte-Carlo evaluator comparison (A3), and the
// baseline comparison (C1). EXPERIMENTS.md records representative outputs.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	ukc "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graphmetric"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// solveEuclidean runs the unified pipeline on a Euclidean point set,
// compiling it per call as a one-shot caller does.
func solveEuclidean(pts []ukc.Point, k int, opts core.Options) (ukc.Result, error) {
	return core.Solve[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, nil, k, opts)
}

func benchEuclidean(b *testing.B, n, z, dim int) []ukc.Point {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts, err := gen.GaussianClusters(rng, n, z, dim, 4, 1, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

// BenchmarkTable1Row1 — 1-center, Euclidean, O(z) construction + exact cost.
func BenchmarkTable1Row1(b *testing.B) {
	pts := benchEuclidean(b, 200, 5, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.OneCenterFirstExpectedPoint(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row2 — restricted assigned, expected distance, Gonzalez
// (factor 6, O(nz + n log k)).
func BenchmarkTable1Row2(b *testing.B) {
	pts := benchEuclidean(b, 500, 5, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveEuclidean(pts, 5, core.Options{
			Rule: ukc.RuleED, Solver: ukc.SolverGonzalez,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row3 — restricted assigned, expected distance, (1+ε)
// (factor 5+ε).
func BenchmarkTable1Row3(b *testing.B) {
	pts := benchEuclidean(b, 60, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveEuclidean(pts, 2, core.Options{
			Rule: ukc.RuleED, Solver: ukc.SolverEps, Eps: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row4 — restricted assigned, expected point, Gonzalez
// (factor 4).
func BenchmarkTable1Row4(b *testing.B) {
	pts := benchEuclidean(b, 500, 5, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveEuclidean(pts, 5, core.Options{
			Rule: ukc.RuleEP, Solver: ukc.SolverGonzalez,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row5 — restricted assigned, expected point, (1+ε)
// (factor 3+ε).
func BenchmarkTable1Row5(b *testing.B) {
	pts := benchEuclidean(b, 60, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveEuclidean(pts, 2, core.Options{
			Rule: ukc.RuleEP, Solver: ukc.SolverEps, Eps: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row6 — unassigned/unrestricted objective: multi-start
// single-swap local search over a snapped candidate set (all point
// locations) on the exact evaluator, via core.SolveUnassignedLSCompiled
// behind Solver.SolveUnassigned. The paper defines this version but gives no
// algorithm; sizes are modest because each swap round scans the whole
// candidate neighborhood.
func BenchmarkTable1Row6(b *testing.B) {
	ctx := context.Background()
	pts := benchEuclidean(b, 60, 3, 2)
	inst := ukc.NewEuclideanInstance(pts)
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solver.SolveUnassigned(ctx, inst, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row7 — unrestricted assigned, (1+ε) pipeline (factor 3+ε).
func BenchmarkTable1Row7(b *testing.B) {
	pts := benchEuclidean(b, 60, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveEuclidean(pts, 2, core.Options{
			Rule: ukc.RuleEP, Solver: ukc.SolverEps, Eps: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row8 — R^1, exact restricted-ED solver (Wang–Zhang
// setting), O(zn log zn · log 1/δ).
func BenchmarkTable1Row8(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts, err := gen.Mixture1D(rng, 500, 5, 4, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ukc.Solve1D(pts, 4, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Row9 — general metric space, 1-center surrogate pipeline
// (factor 5+2ε with OC).
func BenchmarkTable1Row9(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	g, _, err := graphmetric.RandomGeometric(100, 0.2, rng)
	if err != nil {
		b.Fatal(err)
	}
	space, err := g.Metric()
	if err != nil {
		b.Fatal(err)
	}
	pts, err := gen.OnVerticesLocal(rng, space, 50, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve[int](ctx, space, pts, space.Points(), 4, core.Options{
			Surrogate: ukc.SurrogateOneCenter, Rule: ukc.RuleOC,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpectedPointScaling — the O(z) claim for P̄ construction.
func BenchmarkExpectedPointScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, z := range []int{4, 16, 64, 256} {
		locs := make([]geom.Vec, z)
		probs := make([]float64, z)
		for j := range locs {
			locs[j] = geom.Vec{rng.NormFloat64(), rng.NormFloat64()}
			probs[j] = 1 / float64(z)
		}
		p, err := uncertain.New(locs, probs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("z=%d", z), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				uncertain.ExpectedPoint(p)
			}
		})
	}
}

// BenchmarkPipelineScalingN — pipeline time vs n (linear expected).
func BenchmarkPipelineScalingN(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		pts := benchEuclidean(b, n, 4, 2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solveEuclidean(pts, 8, core.Options{Rule: ukc.RuleEP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineScalingZ — pipeline time vs z (linear expected).
func BenchmarkPipelineScalingZ(b *testing.B) {
	for _, z := range []int{2, 4, 8, 16} {
		pts := benchEuclidean(b, 1000, z, 2)
		b.Run(fmt.Sprintf("z=%d", z), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solveEuclidean(pts, 8, core.Options{Rule: ukc.RuleEP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineScalingK — pipeline time vs k (Gonzalez is O(nk)).
func BenchmarkPipelineScalingK(b *testing.B) {
	pts := benchEuclidean(b, 1000, 4, 2)
	for _, k := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solveEuclidean(pts, k, core.Options{Rule: ukc.RuleEP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEcostEvaluators — A3: exact sweep vs Monte-Carlo estimation.
func BenchmarkEcostEvaluators(b *testing.B) {
	pts := benchEuclidean(b, 200, 5, 2)
	res, err := solveEuclidean(pts, 4, core.Options{Rule: ukc.RuleEP})
	if err != nil {
		b.Fatal(err)
	}
	space := metricspace.Euclidean{}
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.EcostAssigned[geom.Vec](space, pts, res.Centers, res.Assign); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("montecarlo-10k", func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.EcostMonteCarlo[geom.Vec](space, pts, res.Centers, res.Assign, 10000, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEpsSweep — A4: the (1+ε) solver's quality/time knob.
func BenchmarkEpsSweep(b *testing.B) {
	pts := benchEuclidean(b, 40, 3, 2)
	for _, eps := range []float64{1, 0.5, 0.25} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solveEuclidean(pts, 2, core.Options{
					Rule: ukc.RuleEP, Solver: ukc.SolverEps, Eps: eps,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSurrogateAblation — A1: expected point vs 1-center surrogate
// construction cost (the Weiszfeld iteration is the difference).
func BenchmarkSurrogateAblation(b *testing.B) {
	pts := benchEuclidean(b, 500, 8, 2)
	b.Run("expected-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveEuclidean(pts, 4, core.Options{
				Surrogate: ukc.SurrogateExpectedPoint, Rule: ukc.RuleEP,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-center", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveEuclidean(pts, 4, core.Options{
				Surrogate: ukc.SurrogateOneCenter, Rule: ukc.RuleOC,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoresetPipeline — the coreset pre-step pays off when the certain
// solver is super-linear: here the (1+ε) grid solver sees 40 coreset points
// instead of 300 surrogates. (With Gonzalez the coreset is pure overhead —
// the solver is already O(nk); see core.Options.CoresetEps.)
func BenchmarkCoresetPipeline(b *testing.B) {
	pts := benchEuclidean(b, 300, 4, 2)
	opts := core.Options{Rule: ukc.RuleEP, Solver: ukc.SolverEps, Eps: 0.5}
	b.Run("direct-eps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveEuclidean(pts, 3, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	withCS := opts
	withCS.CoresetEps = 0.3
	withCS.CoresetMaxSize = 40
	b.Run("coreset-eps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveEuclidean(pts, 3, withCS); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUncertainKMeans — X1 extension: the exact k-means reduction.
func BenchmarkUncertainKMeans(b *testing.B) {
	ctx := context.Background()
	inst := ukc.NewEuclideanInstance(benchEuclidean(b, 1000, 4, 2))
	solver := ukc.NewSolver[ukc.Vec](ukc.WithSeed(8), ukc.WithMaxIter(50))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := solver.SolveKMeans(ctx, inst, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPush — one-pass sketch throughput.
func BenchmarkStreamPush(b *testing.B) {
	pts := benchEuclidean(b, 4096, 3, 2)
	sk, err := ukc.NewStreamKCenter(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sk.Push(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEcostParallel — sequential vs worker-pool exact E-cost
// evaluation (the assigned expected-max sweep) across n. The parallel path
// is bit-identical to the sequential one; this records the speedup curve
// for BENCH_*.json.
func BenchmarkEcostParallel(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{500, 2000, 8000} {
		pts := benchEuclidean(b, n, 5, 2)
		inst := ukc.NewEuclideanInstance(pts)
		res, err := ukc.NewSolver[ukc.Vec]().Solve(ctx, inst, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			solver := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(workers))
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := solver.Ecost(ctx, inst, res.Centers, res.Assign); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveParallel — full unified-pipeline solves across an n/k grid,
// sequential vs worker pool: surrogate construction, assignment and both
// exact cost evaluations all run on the pool.
func BenchmarkSolveParallel(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1000, 4000} {
		pts := benchEuclidean(b, n, 4, 2)
		inst := ukc.NewEuclideanInstance(pts)
		for _, k := range []int{4, 16} {
			for _, workers := range []int{1, 8} {
				solver := ukc.NewSolver[ukc.Vec](ukc.WithRule(ukc.RuleEP), ukc.WithParallelism(workers))
				b.Run(fmt.Sprintf("n=%d/k=%d/workers=%d", n, k, workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := solver.Solve(ctx, inst, k); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkUnassignedParallel — the local-search neighborhood scan is the
// most expensive loop in the repository (one exact sort-and-sweep evaluation
// per candidate per swap); this measures the worker-pool speedup.
func BenchmarkUnassignedParallel(b *testing.B) {
	ctx := context.Background()
	pts := benchEuclidean(b, 24, 3, 2)
	inst := ukc.NewEuclideanInstance(pts)
	for _, workers := range []int{1, 4, 8} {
		solver := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(workers), ukc.WithMaxIter(3))
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.SolveUnassigned(ctx, inst, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSink keeps the compiler from eliding benchmark evaluations.
var benchSink float64

// BenchmarkSwapIncremental — the tentpole old-vs-new pair: one full
// neighborhood scan (every candidate evaluated as a swap at one position)
// on the exact unassigned objective, from-scratch versus through the
// incremental SwapEvaluator. n=200, m=200, k=8, z=4, single worker, so the
// gap is algorithmic (no parallelism): the scratch path pays O(n·z·k)
// metric calls per candidate, the incremental path a single O(nz) min pass
// over cached columns. Both then run the same sweep. The evaluator build is
// outside the timed loop — it is paid once per solve and amortizes over
// k·m·rounds evaluations. ReportAllocs pins the incremental scan at 0
// allocs: EvalSwap and PrepareBase both reuse their scratch.
func BenchmarkSwapIncremental(b *testing.B) {
	ctx := context.Background()
	pts := benchEuclidean(b, 200, 4, 2)
	rng := rand.New(rand.NewSource(9))
	cands := make([]geom.Vec, 200)
	for i := range cands {
		cands[i] = geom.Vec{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
	}
	space := metricspace.Euclidean{}
	k := 8
	chosen := make([]int, k)
	for i := range chosen {
		chosen[i] = i * len(cands) / k
	}
	b.Run("scratch", func(b *testing.B) {
		centers := make([]geom.Vec, k)
		for i, c := range chosen {
			centers[i] = cands[c]
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pos := i % k
			for c := range cands {
				centers[pos] = cands[c]
				cost, err := core.EcostUnassigned[geom.Vec](space, pts, centers)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += cost
			}
			centers[pos] = cands[chosen[pos]]
		}
	})
	b.Run("incremental", func(b *testing.B) {
		c, err := core.Compile[geom.Vec](ctx, space, pts, cands)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := c.Evaluator(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		base, scratch := ev.NewBase(), ev.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.PrepareBase(base, chosen, i%k)
			for c := range cands {
				benchSink += ev.EvalSwap(base, scratch, c)
			}
		}
	})
}

// BenchmarkRepeatedSolve — the PR-4 tentpole's amortization claim: solving
// one instance repeatedly with varying k. "compiled" reuses one instance
// (the compiled flat model, the memoized 1-center surrogates and the
// distance-RV evaluator are built once, then shared by every solve);
// "fresh" rebuilds a new instance per solve — the old per-call path. The
// second-and-later solves of the compiled instance must be strictly faster.
func BenchmarkRepeatedSolve(b *testing.B) {
	ctx := context.Background()
	pts := benchEuclidean(b, 150, 4, 2)
	ks := []int{2, 4, 8, 6}
	solver := ukc.NewSolver[ukc.Vec](
		ukc.WithSurrogate(ukc.SurrogateOneCenter),
		ukc.WithRule(ukc.RuleOC),
	)
	run := func(b *testing.B, inst func(i int) ukc.Instance[ukc.Vec]) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := solver.Solve(ctx, inst(i), ks[i%len(ks)])
			if err != nil {
				b.Fatal(err)
			}
			benchSink += res.Ecost
		}
	}
	b.Run("compiled", func(b *testing.B) {
		shared := ukc.NewEuclideanInstance(pts)
		if _, err := shared.Compile(ctx); err != nil { // warm: pay compilation once, outside the loop
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, func(int) ukc.Instance[ukc.Vec] { return shared })
	})
	b.Run("fresh", func(b *testing.B) {
		run(b, func(int) ukc.Instance[ukc.Vec] { return ukc.NewEuclideanInstance(pts) })
	})
	// The unassigned objective is where the shared evaluator pays most: one
	// n×m distance-RV build per instance lifetime instead of per solve.
	b.Run("unassigned-compiled", func(b *testing.B) {
		shared := ukc.NewEuclideanInstance(pts)
		if _, err := shared.Compile(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, cost, err := solver.SolveUnassigned(ctx, shared, 2+i%3)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += cost
		}
	})
	b.Run("unassigned-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, cost, err := solver.SolveUnassigned(ctx, ukc.NewEuclideanInstance(pts), 2+i%3)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += cost
		}
	})
}

// BenchmarkBaselineComparison — C1: paper pipeline vs baselines, same
// instance.
func BenchmarkBaselineComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts, err := gen.BimodalAdversarial(rng, 200, 4, 2, 25)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("paper-EP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveEuclidean(pts, 4, core.Options{Rule: ukc.RuleEP}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paper-OC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solveEuclidean(pts, 4, core.Options{
				Surrogate: ukc.SurrogateOneCenter, Rule: ukc.RuleOC,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline-mode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ukc.SolveBaseline(pts, 4, ukc.BaselineMode, ukc.BaselineOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline-sample8", func(b *testing.B) {
		srng := rand.New(rand.NewSource(7))
		for i := 0; i < b.N; i++ {
			if _, err := ukc.SolveBaseline(pts, 4, ukc.BaselineSample, ukc.BaselineOptions{Rng: srng, Samples: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
