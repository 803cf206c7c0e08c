package ukc_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	ukc "repro"
	"repro/internal/gen"
	"repro/internal/uncertain"
)

func TestFacadeKMedian(t *testing.T) {
	pts := demoPoints(t)
	cands := uncertain.AllLocations(pts)
	inst := ukc.NewInstance[ukc.Vec](ukc.Euclidean{}, pts, cands)
	centers, assign, cost, err := ukc.NewSolver[ukc.Vec]().SolveKMedian(context.Background(), inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 3 || len(assign) != len(pts) {
		t.Fatal("malformed result")
	}
	c2, err := ukc.EMedianCost(pts, centers, assign)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-c2) > 1e-9 {
		t.Errorf("reported %g, recomputed %g", cost, c2)
	}
}

func TestFacadeKMeans(t *testing.T) {
	pts := demoPoints(t)
	solver := ukc.NewSolver[ukc.Vec](ukc.WithSeed(5), ukc.WithMaxIter(100))
	centers, assign, cost, floor, err := solver.SolveKMeans(context.Background(), ukc.NewEuclideanInstance(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 3 || len(assign) != len(pts) {
		t.Fatal("malformed result")
	}
	if cost < floor-1e-9 {
		t.Errorf("cost %g below variance floor %g", cost, floor)
	}
	c2, err := ukc.EMeansCost(pts, centers, assign)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-c2) > 1e-9*(1+cost) {
		t.Errorf("reported %g, recomputed %g", cost, c2)
	}
	// Variance floor is the sum of point variances.
	var sum float64
	for _, p := range pts {
		sum += ukc.PointVariance(p)
	}
	if math.Abs(sum-floor) > 1e-9*(1+sum) {
		t.Errorf("floor %g, sum of variances %g", floor, sum)
	}
}

func TestFacadeStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, err := gen.GaussianClusters(rng, 40, 3, 2, 2, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var one ukc.Stream1Center
	for _, p := range pts {
		if err := one.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if one.N() != 40 || !one.Center().IsFinite() {
		t.Error("stream 1-center malformed")
	}

	sk, err := ukc.NewStreamKCenter(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := sk.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	centers := sk.Centers()
	if len(centers) == 0 || len(centers) > 2 {
		t.Fatalf("stream centers = %d", len(centers))
	}
	// The streaming result is a usable center set: exact cost is finite and
	// within a constant of the batch pipeline.
	ctx := context.Background()
	inst := ukc.NewEuclideanInstance(pts)
	solver := ukc.NewSolver[ukc.Vec]()
	streamCost, err := solver.EcostUnassigned(ctx, inst, centers)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := solver.Solve(ctx, inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if batch.EcostUnassigned > 0 && streamCost > 10*batch.EcostUnassigned {
		t.Errorf("stream cost %g vs batch %g", streamCost, batch.EcostUnassigned)
	}
}
