package ukc_test

import (
	"context"
	"testing"

	ukc "repro"
	"repro/obs"
)

// TestWithTracerSolveSpans exercises the end-to-end span vocabulary: a
// fresh instance solved twice must report the compile and build spans once
// (memoized) and the per-solve pipeline phases on every call.
func TestWithTracerSolveSpans(t *testing.T) {
	pts := demoPoints(t)
	rec := &obs.Recorder{}
	solver := ukc.NewSolver[ukc.Vec](ukc.WithTracer(rec))
	inst := ukc.NewEuclideanInstance(pts)

	for i := 0; i < 2; i++ {
		if _, err := solver.Solve(context.Background(), inst, 3); err != nil {
			t.Fatal(err)
		}
	}

	once := []string{"compile.validate", "compile.flatten", "surrogate.build.ep"}
	for _, name := range once {
		if got := len(rec.Named(name)); got != 1 {
			t.Errorf("span %q recorded %d times, want 1 (memoized)", name, got)
		}
	}
	perSolve := []string{"solve.surrogates", "solve.certain", "solve.assign", "solve.ecost"}
	for _, name := range perSolve {
		if got := len(rec.Named(name)); got != 2 {
			t.Errorf("span %q recorded %d times, want 2", name, got)
		}
	}

	flatten := rec.Named("compile.flatten")[0]
	if atoms, ok := flatten.Attr("atoms"); !ok || atoms <= 0 {
		t.Errorf("compile.flatten atoms attr = %d, %v", atoms, ok)
	}
	ecost := rec.Named("solve.ecost")[0]
	if v, ok := ecost.Attr("ecost"); !ok || v <= 0 {
		t.Errorf("solve.ecost micros attr = %d, %v", v, ok)
	}
}

// TestWithTracerUnassignedSpans checks the local-search spans, including
// the descent summary attributes, and that no evaluator.build span fires:
// the swap evaluator builds nothing.
func TestWithTracerUnassignedSpans(t *testing.T) {
	pts := demoPoints(t)
	rec := &obs.Recorder{}
	solver := ukc.NewSolver[ukc.Vec](ukc.WithTracer(rec), ukc.WithMaxIter(10))
	inst := ukc.NewEuclideanInstance(pts)

	if _, _, err := solver.SolveUnassigned(context.Background(), inst, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Named("evaluator.build")); got != 0 {
		t.Errorf("evaluator.build recorded %d times, want 0", got)
	}
	descents := rec.Named("ls.descent")
	if len(descents) == 0 {
		t.Fatal("no ls.descent spans recorded")
	}
	iters := rec.Named("ls.iter")
	if len(iters) == 0 {
		t.Fatal("no ls.iter spans recorded")
	}
	d := descents[0]
	if k, ok := d.Attr("k"); !ok || k != 3 {
		t.Errorf("ls.descent k = %d, %v", k, ok)
	}
	if swaps, ok := d.Attr("swaps"); !ok || swaps <= 0 {
		t.Errorf("ls.descent swaps = %d, %v", swaps, ok)
	}

	// Sweep span fires on the sweep path.
	centers := []ukc.Vec{pts[0].Locs[0], pts[1].Locs[0], pts[2].Locs[0]}
	if _, _, err := solver.EcostSweep(context.Background(), inst, centers); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Named("sweep")); got != 1 {
		t.Errorf("sweep recorded %d times, want 1", got)
	}
	if got := len(rec.Named("evaluator.build")); got != 0 {
		t.Errorf("evaluator.build recorded %d times after a sweep, want 0", got)
	}
}
