package ukc_test

// Tests for the generic Instance/Solver API: per-space defaults,
// bit-identical parallelism, and context cancellation semantics.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	ukc "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphmetric"
	"repro/obs"
)

func euclideanInstance(t testing.TB, seed int64, n, z int) ukc.Instance[ukc.Vec] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts, err := gen.GaussianClusters(rng, n, z, 2, 4, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return ukc.NewEuclideanInstance(pts)
}

func finiteInstance(t testing.TB, seed int64, vertices, n, z int) ukc.Instance[int] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _, err := graphmetric.RandomGeometric(vertices, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	space, err := g.Metric()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := gen.OnVerticesLocal(rng, space, n, z)
	if err != nil {
		t.Fatal(err)
	}
	return ukc.NewFiniteInstance(space, pts, nil)
}

// TestParallelismBitIdentical is the WithParallelism contract: for n ∈
// {1, 4, 8} the centers, assignments and costs must be EXACTLY equal —
// not approximately — on fixed-seed instances, across spaces and rules.
func TestParallelismBitIdentical(t *testing.T) {
	ctx := context.Background()
	t.Run("euclidean", func(t *testing.T) {
		inst := euclideanInstance(t, 11, 80, 4)
		for _, k := range []int{2, 5} {
			for _, rule := range []ukc.Rule{ukc.RuleED, ukc.RuleEP, ukc.RuleOC} {
				base, err := ukc.NewSolver[ukc.Vec](ukc.WithRule(rule), ukc.WithParallelism(1)).Solve(ctx, inst, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{4, 8} {
					res, err := ukc.NewSolver[ukc.Vec](ukc.WithRule(rule), ukc.WithParallelism(par)).Solve(ctx, inst, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(base, res) {
						t.Fatalf("k=%d rule=%v parallelism=%d deviates from sequential", k, rule, par)
					}
				}
			}
		}
	})
	t.Run("finite", func(t *testing.T) {
		inst := finiteInstance(t, 13, 40, 25, 3)
		base, err := ukc.NewSolver[int](ukc.WithParallelism(1)).Solve(ctx, inst, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{4, 8} {
			res, err := ukc.NewSolver[int](ukc.WithParallelism(par)).Solve(ctx, inst, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("parallelism=%d deviates from sequential", par)
			}
		}
	})
	t.Run("unassigned-local-search", func(t *testing.T) {
		inst := euclideanInstance(t, 17, 12, 3)
		var wantC []ukc.Vec
		var wantCost float64
		for i, par := range []int{1, 4, 8} {
			c, cost, err := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(par)).SolveUnassigned(ctx, inst, 2)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wantC, wantCost = c, cost
				continue
			}
			if cost != wantCost || !reflect.DeepEqual(wantC, c) {
				t.Fatalf("parallelism=%d: got cost %v centers %v, want %v %v", par, cost, c, wantCost, wantC)
			}
		}
	})
	t.Run("kmedian", func(t *testing.T) {
		inst := euclideanInstance(t, 19, 15, 3)
		bc, ba, bcost, err := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(1)).SolveKMedian(ctx, inst, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{4, 8} {
			c, a, cost, err := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(par)).SolveKMedian(ctx, inst, 3)
			if err != nil {
				t.Fatal(err)
			}
			if cost != bcost || !reflect.DeepEqual(bc, c) || !reflect.DeepEqual(ba, a) {
				t.Fatalf("parallelism=%d deviates from sequential", par)
			}
		}
	})
}

// TestContextCancellation: every solve entry point must notice a canceled
// context and surface ctx.Err().
func TestContextCancellation(t *testing.T) {
	inst := euclideanInstance(t, 23, 60, 4)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	solver := ukc.NewSolver[ukc.Vec]()

	if _, err := solver.Solve(canceled, inst, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve: got %v, want context.Canceled", err)
	}
	if _, _, err := solver.SolveUnassigned(canceled, inst, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveUnassigned: got %v, want context.Canceled", err)
	}
	if _, _, _, err := solver.SolveKMedian(canceled, inst, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveKMedian: got %v, want context.Canceled", err)
	}
	if _, _, _, _, err := solver.SolveKMeans(canceled, inst, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveKMeans: got %v, want context.Canceled", err)
	}
	if _, err := solver.Ecost(canceled, inst, []ukc.Vec{{0, 0}}, make([]int, inst.N())); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ecost: got %v, want context.Canceled", err)
	}
	if _, err := solver.EcostUnassigned(canceled, inst, []ukc.Vec{{0, 0}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EcostUnassigned: got %v, want context.Canceled", err)
	}
}

// cancelOnSpan is a tracer that cancels a context when the first span
// with the given name ends.
type cancelOnSpan struct {
	name   string
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnSpan) Span(name string, _ time.Time, _ time.Duration, _ []obs.Attr) {
	if name == c.name {
		c.once.Do(c.cancel)
	}
}

// TestContextCancellationMidSolve cancels the context when the local
// search's first swap round ends — deterministically mid-descent, however
// fast the scan — and the solve must abort with context.Canceled instead of
// running to completion.
func TestContextCancellationMidSolve(t *testing.T) {
	inst := euclideanInstance(t, 29, 120, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelOnSpan{name: "ls.iter", cancel: cancel}
	start := time.Now()
	_, _, err := ukc.NewSolver[ukc.Vec](ukc.WithTracer(tr)).SolveUnassigned(ctx, inst, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, not mid-solve", elapsed)
	}
}

// TestSolverSpaceDefaults: the zero-option solver must pick the paper's
// recommended pipeline per space — EP/expected-point on Euclidean
// instances, ED/1-center on finite ones — and both must go through the one
// generic pipeline.
func TestSolverSpaceDefaults(t *testing.T) {
	ctx := context.Background()

	eInst := euclideanInstance(t, 31, 30, 3)
	eRes, err := ukc.NewSolver[ukc.Vec]().Solve(ctx, eInst, 3)
	if err != nil {
		t.Fatal(err)
	}
	eComp, err := core.Compile[ukc.Vec](ctx, ukc.Euclidean{}, eInst.Points, nil)
	if err != nil {
		t.Fatal(err)
	}
	eWant, err := core.SolveCompiled(ctx, eComp, 3, core.Options{
		Surrogate: core.SurrogateExpectedPoint, Rule: core.RuleEP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eWant, eRes) {
		t.Fatal("Euclidean default is not the EP/expected-point pipeline")
	}

	fInst := finiteInstance(t, 37, 25, 15, 3)
	fRes, err := ukc.NewSolver[int]().Solve(ctx, fInst, 3)
	if err != nil {
		t.Fatal(err)
	}
	fSpace := fInst.Space.(*ukc.FiniteSpace)
	fComp, err := core.Compile[int](ctx, fSpace, fInst.Points, fSpace.Points())
	if err != nil {
		t.Fatal(err)
	}
	fWant, err := core.SolveCompiled(ctx, fComp, 3, core.Options{
		Surrogate: core.SurrogateOneCenter, Rule: core.RuleED,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fWant, fRes) {
		t.Fatal("finite default is not the ED/1-center pipeline")
	}
}

// TestSolverClampsK pins the documented k clamp: Solve returns min(k, n)
// centers under every certain solver, and SolveUnassigned min(k, m) when
// the m candidates are distinct, as they are here.
func TestSolverClampsK(t *testing.T) {
	ctx := context.Background()
	eu := euclideanInstance(t, 71, 3, 2)  // n = 3, m = 6 distinct locations
	fin := finiteInstance(t, 73, 8, 2, 2) // n = 2, m = 8 vertices
	solve := func(s *ukc.Solver[ukc.Vec], k int) (int, error) {
		res, err := s.Solve(ctx, eu, k)
		return len(res.Centers), err
	}
	solveFinite := func(s *ukc.Solver[int], k int) (int, error) {
		res, err := s.Solve(ctx, fin, k)
		return len(res.Centers), err
	}
	for _, tc := range []struct {
		name string
		run  func() (int, error)
		want int
	}{
		{"euclidean/gonzalez k=7", func() (int, error) { return solve(ukc.NewSolver[ukc.Vec](), 7) }, 3},
		{"euclidean/eps k=7", func() (int, error) {
			return solve(ukc.NewSolver[ukc.Vec](ukc.WithCertainSolver(ukc.SolverEps)), 7)
		}, 3},
		{"euclidean/exact-discrete k=7", func() (int, error) {
			return solve(ukc.NewSolver[ukc.Vec](ukc.WithCertainSolver(ukc.SolverExactDiscrete)), 7)
		}, 3},
		{"finite/gonzalez k=5", func() (int, error) { return solveFinite(ukc.NewSolver[int](), 5) }, 2},
		{"finite/exact-discrete k=5", func() (int, error) {
			return solveFinite(ukc.NewSolver[int](ukc.WithCertainSolver(ukc.SolverExactDiscrete)), 5)
		}, 2},
		{"euclidean/unassigned k=9", func() (int, error) {
			centers, _, err := ukc.NewSolver[ukc.Vec]().SolveUnassigned(ctx, eu, 9)
			return len(centers), err
		}, 6},
		{"finite/unassigned k=9", func() (int, error) {
			centers, _, err := ukc.NewSolver[int]().SolveUnassigned(ctx, fin, 9)
			return len(centers), err
		}, 8},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %d centers, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSolverRejectsMalformedCenters: every method that takes centers
// returns an error for centers the instance's space cannot measure — a
// Euclidean center of the wrong dimension or with a NaN or ±Inf
// coordinate, a vertex outside the finite space — instead of panicking
// inside a distance loop or never returning.
func TestSolverRejectsMalformedCenters(t *testing.T) {
	checkMalformedCenters(t, ukc.NewSolver[ukc.Vec](), euclideanInstance(t, 61, 12, 2),
		[][]ukc.Vec{{{0, 0, 0}}, {{0, 0}, {1}},
			{{math.NaN(), 0}}, {{0, 0}, {math.Inf(1), 0}}, {{0, math.Inf(-1)}}})
	checkMalformedCenters(t, ukc.NewSolver[int](), finiteInstance(t, 67, 20, 10, 2),
		[][]int{{999}, {0, -1}})
}

func checkMalformedCenters[P any](t *testing.T, solver *ukc.Solver[P], inst ukc.Instance[P], bad [][]P) {
	t.Helper()
	ctx := context.Background()
	for _, centers := range bad {
		wantError(t, fmt.Sprintf("Assign(%v)", centers), func() error {
			_, err := solver.Assign(ctx, inst, centers)
			return err
		})
		wantError(t, fmt.Sprintf("Ecost(%v)", centers), func() error {
			_, err := solver.Ecost(ctx, inst, centers, make([]int, inst.N()))
			return err
		})
		wantError(t, fmt.Sprintf("EcostUnassigned(%v)", centers), func() error {
			_, err := solver.EcostUnassigned(ctx, inst, centers)
			return err
		})
		wantError(t, fmt.Sprintf("EcostSweep(%v)", centers), func() error {
			_, _, err := solver.EcostSweep(ctx, inst, centers)
			return err
		})
	}
}

// wantError runs call on its own goroutine and requires an error within
// 5 s, so a call that never returns fails the test instead of hanging it.
func wantError(t *testing.T, name string, call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("%s: no answer within 5s", name)
	}
}

// TestInstanceConstructors covers the instance helpers and validation.
func TestInstanceConstructors(t *testing.T) {
	inst := euclideanInstance(t, 41, 10, 3)
	if !inst.IsEuclidean() {
		t.Fatal("Euclidean instance not recognized")
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.N() != 10 || inst.MaxZ() != 3 || inst.TotalLocations() != 30 {
		t.Fatalf("N/MaxZ/TotalLocations = %d/%d/%d", inst.N(), inst.MaxZ(), inst.TotalLocations())
	}

	g := ukc.NewGraph(4)
	for i := 0; i < 4; i++ {
		if err := g.AddEdge(i, (i+1)%4, 1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := ukc.NewFinitePoint([]int{0, 2}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	gInst, err := ukc.NewGraphInstance(g, []ukc.FinitePoint{p})
	if err != nil {
		t.Fatal(err)
	}
	if gInst.IsEuclidean() {
		t.Fatal("graph instance claims to be Euclidean")
	}
	if len(gInst.Candidates) != 4 {
		t.Fatalf("graph instance candidates = %d, want all 4 vertices", len(gInst.Candidates))
	}
	if _, err := ukc.NewSolver[int]().Solve(context.Background(), gInst, 2); err != nil {
		t.Fatal(err)
	}

	bad := ukc.Instance[ukc.Vec]{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty instance validated")
	}
}

// TestSolveKMeansRequiresEuclidean pins the one capability that cannot be
// generic: expected points need linear structure.
func TestSolveKMeansRequiresEuclidean(t *testing.T) {
	inst := finiteInstance(t, 43, 15, 10, 2)
	if _, _, _, _, err := ukc.NewSolver[int]().SolveKMeans(context.Background(), inst, 2); err == nil {
		t.Fatal("SolveKMeans accepted a finite-metric instance")
	}
}

// TestSolveKMeansSeeded: WithSeed must make the k-means++ seeding
// reproducible through the Solver API.
func TestSolveKMeansSeeded(t *testing.T) {
	inst := euclideanInstance(t, 47, 40, 3)
	ctx := context.Background()
	c1, a1, cost1, floor1, err := ukc.NewSolver[ukc.Vec](ukc.WithSeed(5)).SolveKMeans(ctx, inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	c2, a2, cost2, floor2, err := ukc.NewSolver[ukc.Vec](ukc.WithSeed(5)).SolveKMeans(ctx, inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cost1 != cost2 || floor1 != floor2 || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed produced different k-means results")
	}
}

// TestExactDiscreteEpsCertificate: restricting centers to a discrete
// candidate set certifies ε = 0 only in a finite space; in continuous
// Euclidean space it is at best a 2-approximation (ε = 1), with or without
// an explicit candidate set.
func TestExactDiscreteEpsCertificate(t *testing.T) {
	ctx := context.Background()
	eInst := euclideanInstance(t, 53, 15, 3)
	withCands := ukc.NewInstance[ukc.Vec](ukc.Euclidean{}, eInst.Points, eInst.Points[0].Locs)
	for name, inst := range map[string]ukc.Instance[ukc.Vec]{"no-candidates": eInst, "explicit-candidates": withCands} {
		res, err := ukc.NewSolver[ukc.Vec](ukc.WithCertainSolver(ukc.SolverExactDiscrete)).Solve(ctx, inst, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.EffectiveEps != 1 {
			t.Fatalf("%s: Euclidean exact-discrete certified eps=%v, want 1", name, res.EffectiveEps)
		}
	}

	fInst := finiteInstance(t, 59, 20, 12, 2)
	res, err := ukc.NewSolver[int](ukc.WithCertainSolver(ukc.SolverExactDiscrete)).Solve(ctx, fInst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveEps != 0 {
		t.Fatalf("finite exact-discrete over all points certified eps=%v, want 0", res.EffectiveEps)
	}
}
