package ukc_test

// Tests for the public compiled-instance surface: Instance.Compile caching
// (including concurrent first compile), implicit compilation by every
// Solver method with bit-identical cached vs fresh results, the compiled
// dataset loaders, and the streaming sketches' compiled feed.

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	ukc "repro"
	"repro/internal/gen"
)

// TestInstanceCompileCached pins the cache identity contract: repeated
// Compile calls — on the instance or any copy of it — return one pointer.
func TestInstanceCompileCached(t *testing.T) {
	inst := euclideanInstance(t, 71, 30, 3)
	ctx := context.Background()
	c1, err := inst.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := inst.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Compile returned a different compiled model")
	}
	cp := inst // value copy shares the cache cell
	c3, err := cp.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c1 {
		t.Fatal("a copy of the instance compiled a second model")
	}
	if c1.NumPoints() != inst.N() {
		t.Fatalf("compiled NumPoints = %d, instance N = %d", c1.NumPoints(), inst.N())
	}
}

// TestInstanceConcurrentFirstCompile races many goroutines into the first
// compilation (run under -race by make check): exactly one model must be
// built and every caller must receive it.
func TestInstanceConcurrentFirstCompile(t *testing.T) {
	inst := euclideanInstance(t, 72, 50, 4)
	ctx := context.Background()
	const goroutines = 32
	var wg sync.WaitGroup
	got := make([]*ukc.Compiled[ukc.Vec], goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = inst.Compile(ctx)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different compiled model", g)
		}
	}
}

// TestCompileRejectsInvalidInstance: the compile boundary surfaces the
// validation errors Validate used to.
func TestCompileRejectsInvalidInstance(t *testing.T) {
	bad, err := ukc.NewPoint([]ukc.Vec{{0, 0}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	het := ukc.NewEuclideanInstance([]ukc.Point{
		bad,
		{Locs: []ukc.Vec{{1, 2, 3}}, Probs: []float64{1}},
	})
	if _, err := het.Compile(context.Background()); err == nil {
		t.Error("heterogeneous dimensions compiled")
	}
	if err := het.Validate(); err == nil {
		t.Error("heterogeneous dimensions validated")
	}
	empty := ukc.NewEuclideanInstance(nil)
	if _, err := empty.Compile(context.Background()); err == nil {
		t.Error("empty instance compiled")
	}
	// A nil finite space is rejected everywhere, not stored as a typed nil
	// pointer that passes validation and panics on first use.
	p, err := ukc.NewFinitePoint([]int{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	nilSpace := ukc.NewFiniteInstance(nil, []ukc.FinitePoint{p}, []int{0})
	if err := nilSpace.Validate(); err == nil {
		t.Error("nil finite space validated")
	}
	if _, err := ukc.NewSolver[int]().Solve(context.Background(), nilSpace, 1); err == nil {
		t.Error("nil finite space solved")
	}
}

// TestSolverCachedVsFreshBitIdentical is the public-surface version of the
// tentpole contract, for workers ∈ {1, 4, 8}: a second (and third) solve of
// one instance — warm caches — returns results bit-identical to solving a
// fresh instance over the same points, across Solve, SolveUnassigned,
// EcostSweep, Ecost/EcostUnassigned and Assign.
func TestSolverCachedVsFreshBitIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(73))
	pts, err := gen.GaussianClusters(rng, 36, 3, 2, 3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		solver := ukc.NewSolver[ukc.Vec](
			ukc.WithSurrogate(ukc.SurrogateOneCenter),
			ukc.WithRule(ukc.RuleOC),
			ukc.WithParallelism(workers),
		)
		warmInst := ukc.NewEuclideanInstance(pts)
		for _, k := range []int{2, 3, 2} { // revisit k=2 with warm caches
			warm, err := solver.Solve(ctx, warmInst, k)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := solver.Solve(ctx, ukc.NewEuclideanInstance(pts), k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, fresh) {
				t.Fatalf("workers=%d k=%d: warm solve differs from fresh solve", workers, k)
			}

			warmC, warmCost, err := solver.SolveUnassigned(ctx, warmInst, k)
			if err != nil {
				t.Fatal(err)
			}
			freshC, freshCost, err := solver.SolveUnassigned(ctx, ukc.NewEuclideanInstance(pts), k)
			if err != nil {
				t.Fatal(err)
			}
			if warmCost != freshCost || !reflect.DeepEqual(warmC, freshC) {
				t.Fatalf("workers=%d k=%d: warm SolveUnassigned differs from fresh", workers, k)
			}

			warmSweep, warmSnap, err := solver.EcostSweep(ctx, warmInst, warm.Centers)
			if err != nil {
				t.Fatal(err)
			}
			freshSweep, freshSnap, err := solver.EcostSweep(ctx, ukc.NewEuclideanInstance(pts), warm.Centers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warmSnap, freshSnap) || !reflect.DeepEqual(warmSweep, freshSweep) {
				t.Fatalf("workers=%d k=%d: warm EcostSweep differs from fresh", workers, k)
			}

			warmE, err := solver.Ecost(ctx, warmInst, warm.Centers, warm.Assign)
			if err != nil {
				t.Fatal(err)
			}
			freshE, err := solver.Ecost(ctx, ukc.NewEuclideanInstance(pts), warm.Centers, warm.Assign)
			if err != nil {
				t.Fatal(err)
			}
			if warmE != freshE {
				t.Fatalf("workers=%d k=%d: warm Ecost %g != fresh %g", workers, k, warmE, freshE)
			}

			warmA, err := solver.Assign(ctx, warmInst, warm.Centers)
			if err != nil {
				t.Fatal(err)
			}
			freshA, err := solver.Assign(ctx, ukc.NewEuclideanInstance(pts), warm.Centers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warmA, freshA) {
				t.Fatalf("workers=%d k=%d: warm Assign differs from fresh", workers, k)
			}
		}
	}
}

// TestSolveWithZeroProbabilityAtoms pins compile-time pruning at the public
// surface: an instance containing p = 0 atoms solves to the same result as
// the manually pruned instance.
func TestSolveWithZeroProbabilityAtoms(t *testing.T) {
	ctx := context.Background()
	withZero := []ukc.Point{
		{Locs: []ukc.Vec{{0, 0}, {50, 50}, {1, 1}}, Probs: []float64{0.6, 0, 0.4}},
		{Locs: []ukc.Vec{{5, 5}}, Probs: []float64{1}},
		{Locs: []ukc.Vec{{-2, 3}, {9, 9}}, Probs: []float64{0.5, 0.5}},
	}
	pruned := []ukc.Point{
		{Locs: []ukc.Vec{{0, 0}, {1, 1}}, Probs: []float64{0.6, 0.4}},
		{Locs: []ukc.Vec{{5, 5}}, Probs: []float64{1}},
		{Locs: []ukc.Vec{{-2, 3}, {9, 9}}, Probs: []float64{0.5, 0.5}},
	}
	solver := ukc.NewSolver[ukc.Vec]()
	a, err := solver.Solve(ctx, ukc.NewEuclideanInstance(withZero), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solver.Solve(ctx, ukc.NewEuclideanInstance(pruned), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ecost != b.Ecost || a.EcostUnassigned != b.EcostUnassigned {
		t.Fatalf("zero-atom instance costs (%g, %g) != pruned (%g, %g)",
			a.Ecost, a.EcostUnassigned, b.Ecost, b.EcostUnassigned)
	}
	if !reflect.DeepEqual(a.Assign, b.Assign) {
		t.Fatal("zero-atom instance assignment differs from pruned")
	}
}

// TestReadCompiledInstance round-trips a dataset through the compiled
// loader and pins solve equality with the plain loader.
func TestReadCompiledInstance(t *testing.T) {
	ctx := context.Background()
	inst := euclideanInstance(t, 74, 25, 3)
	var buf bytes.Buffer
	if err := ukc.WriteInstance(&buf, inst.Points); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	compiled, err := ukc.ReadCompiledInstance(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// The loader pre-populates the cache: Compile must not rebuild.
	c1, err := compiled.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compiled.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("compiled loader did not pre-populate the cache")
	}

	pts, err := ukc.ReadInstance(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	solver := ukc.NewSolver[ukc.Vec]()
	a, err := solver.Solve(ctx, compiled, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solver.Solve(ctx, ukc.NewEuclideanInstance(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("compiled-loader solve differs from plain-loader solve")
	}
}

// TestStreamPushCompiled pins the sketches' compiled feed against the
// per-point Push path.
func TestStreamPushCompiled(t *testing.T) {
	ctx := context.Background()
	inst := euclideanInstance(t, 75, 60, 3)
	c, err := inst.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var one, oneCompiled ukc.Stream1Center
	if err := one.PushSet(ctx, inst.Points); err != nil {
		t.Fatal(err)
	}
	if err := oneCompiled.PushCompiled(ctx, c); err != nil {
		t.Fatal(err)
	}
	if got, want := oneCompiled.Center(), one.Center(); !reflect.DeepEqual(got, want) {
		t.Fatalf("1-center compiled feed center %v, per-point %v", got, want)
	}

	kc, err := ukc.NewStreamKCenter(3)
	if err != nil {
		t.Fatal(err)
	}
	kcCompiled, err := ukc.NewStreamKCenter(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := kc.PushSet(ctx, inst.Points); err != nil {
		t.Fatal(err)
	}
	if err := kcCompiled.PushCompiled(ctx, c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kcCompiled.Centers(), kc.Centers()) {
		t.Fatal("k-center compiled feed centers differ from per-point feed")
	}
}
