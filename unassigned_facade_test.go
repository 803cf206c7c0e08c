package ukc_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	ukc "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/uncertain"
)

func TestFacadeSolveUnassigned(t *testing.T) {
	ctx := context.Background()
	pts := demoPoints(t)
	cands := append(uncertain.AllLocations(pts), ukc.ExpectedPoint(pts[0]))
	inst := ukc.NewInstance[ukc.Vec](ukc.Euclidean{}, pts, cands)
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(50))
	centers, cost, err := solver.SolveUnassigned(ctx, inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > 3 {
		t.Fatalf("centers = %d", len(centers))
	}
	// Reported cost matches re-evaluation.
	got, err := solver.EcostUnassigned(ctx, inst, centers)
	if err != nil {
		t.Fatal(err)
	}
	if d := got - cost; d > 1e-9 || d < -1e-9 {
		t.Errorf("reported %g, recomputed %g", cost, got)
	}
	// Optimizing the unassigned objective directly never loses to the
	// pipeline's unassigned cost when given its centers' building blocks.
	pipe, err := solver.Solve(ctx, ukc.NewEuclideanInstance(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if cost > pipe.EcostUnassigned*1.5+1e-9 {
		t.Errorf("local search %g vs pipeline unassigned %g", cost, pipe.EcostUnassigned)
	}
}

func TestFacadeSolveUnassignedMetric(t *testing.T) {
	g := ukc.NewGraph(5)
	for v := 0; v < 4; v++ {
		if err := g.AddEdge(v, v+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	space, err := g.Metric()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ukc.NewFinitePoint([]int{0, 1}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ukc.NewFinitePoint([]int{3, 4}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	inst := ukc.NewFiniteInstance(space, []ukc.FinitePoint{p1, p2}, nil)
	centers, cost, err := ukc.NewSolver[int](ukc.WithMaxIter(50)).SolveUnassigned(context.Background(), inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 2 {
		t.Fatalf("centers = %v", centers)
	}
	// Two centers on a 5-path with endpoints-pair points: cost ≤ 1.
	if cost > 1+1e-9 {
		t.Errorf("cost = %g, want ≤ 1", cost)
	}
}

// TestSolverEcostSweep: the public neighborhood-sweep API snaps centers to
// candidates, its diagonal entries equal the snapped set's exact cost, and
// WithParallelism leaves the matrix bit-identical.
func TestSolverEcostSweep(t *testing.T) {
	ctx := context.Background()
	pts := demoPoints(t)
	inst := ukc.NewEuclideanInstance(pts)
	solver := ukc.NewSolver[ukc.Vec]()
	centers, _, err := solver.SolveUnassigned(ctx, inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	sweep, snapped, err := solver.EcostSweep(ctx, inst, centers)
	if err != nil {
		t.Fatal(err)
	}
	cands := uncertain.AllLocations(pts)
	if len(sweep) != len(centers) || len(snapped) != len(centers) {
		t.Fatalf("sweep %d rows, snapped %d, want %d", len(sweep), len(snapped), len(centers))
	}
	snappedSet := make([]ukc.Vec, len(snapped))
	for i, c := range snapped {
		if c < 0 || c >= len(cands) {
			t.Fatalf("snapped[%d] = %d out of range", i, c)
		}
		snappedSet[i] = cands[c]
	}
	want, err := solver.EcostUnassigned(ctx, inst, snappedSet)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range sweep {
		if len(sweep[pos]) != len(cands) {
			t.Fatalf("row %d has %d entries, want %d", pos, len(sweep[pos]), len(cands))
		}
		diag := sweep[pos][snapped[pos]]
		if d := (diag - want) / (1 + want); d > 1e-12 || d < -1e-12 {
			t.Errorf("row %d diagonal %g, set cost %g", pos, diag, want)
		}
	}
	par, _, err := ukc.NewSolver[ukc.Vec](ukc.WithParallelism(4)).EcostSweep(ctx, inst, centers)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range sweep {
		for c := range sweep[pos] {
			if par[pos][c] != sweep[pos][c] {
				t.Fatalf("parallel sweep[%d][%d] = %g != %g", pos, c, par[pos][c], sweep[pos][c])
			}
		}
	}
}

// TestSolveUnassignedMatchesOracle pins the default scan, pruned by both
// certificates, to the unpruned scan (DisablePrune) bit for bit: the same
// centers and the same cost, in Euclidean space and in a finite metric.
// The cost must also equal Solver.EcostUnassigned of the returned centers,
// the from-scratch exact E-cost, with ==.
func TestSolveUnassignedMatchesOracle(t *testing.T) {
	t.Run("euclidean", func(t *testing.T) {
		pts, err := gen.GaussianClusters(rand.New(rand.NewSource(4242)), 30, 3, 2, 3, 1, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		matchesOracle(t, ukc.NewEuclideanInstance(pts), 3)
	})
	t.Run("finite", func(t *testing.T) {
		matchesOracle(t, finiteInstance(t, 4243, 40, 25, 3), 3)
	})
}

func matchesOracle[P any](t *testing.T, inst ukc.Instance[P], k int) {
	t.Helper()
	ctx := context.Background()
	solver := ukc.NewSolver[P]()
	centers, cost, err := solver.SolveUnassigned(ctx, inst, k)
	if err != nil {
		t.Fatal(err)
	}
	c, err := inst.Compile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracleCenters, oracleCost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{DisablePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if cost != oracleCost || !reflect.DeepEqual(centers, oracleCenters) {
		t.Fatalf("default: centers %v cost %v; unpruned: centers %v cost %v", centers, cost, oracleCenters, oracleCost)
	}
	exact, err := solver.EcostUnassigned(ctx, inst, centers)
	if err != nil {
		t.Fatal(err)
	}
	if cost != exact {
		t.Fatalf("returned cost %.17g, EcostUnassigned of its centers %.17g", cost, exact)
	}
}
