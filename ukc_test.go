package ukc_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	ukc "repro"
	"repro/internal/gen"
)

func demoPoints(t *testing.T) []ukc.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	pts, err := gen.GaussianClusters(rng, 15, 3, 2, 3, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestFacadeEuclideanPipeline(t *testing.T) {
	ctx := context.Background()
	inst := ukc.NewEuclideanInstance(demoPoints(t))
	solver := ukc.NewSolver[ukc.Vec](ukc.WithRule(ukc.RuleEP))
	res, err := solver.Solve(ctx, inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 || len(res.Assign) != inst.N() {
		t.Fatalf("malformed result")
	}
	// The solver's evaluators agree with the result.
	ec, err := solver.Ecost(ctx, inst, res.Centers, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ec-res.Ecost) > 1e-9 {
		t.Errorf("Ecost %g vs result %g", ec, res.Ecost)
	}
	un, err := solver.EcostUnassigned(ctx, inst, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if un > ec+1e-9 {
		t.Errorf("unassigned %g > assigned %g", un, ec)
	}
}

func TestFacadePointConstructors(t *testing.T) {
	p, err := ukc.NewPoint([]ukc.Vec{{0, 0}, {1, 1}}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Z() != 2 {
		t.Errorf("Z = %d", p.Z())
	}
	u, err := ukc.NewUniformPoint([]ukc.Vec{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if u.Probs[0] != 1.0/3 {
		t.Errorf("uniform prob = %g", u.Probs[0])
	}
	d := ukc.NewDeterministicPoint(ukc.Vec{5, 5})
	if d.Z() != 1 {
		t.Errorf("deterministic Z = %d", d.Z())
	}
	ep := ukc.ExpectedPoint(p)
	if !ep.Equal(ukc.Vec{0.5, 0.5}, 1e-12) {
		t.Errorf("ExpectedPoint = %v", ep)
	}
	oc := ukc.PointOneCenter(p)
	if !oc.IsFinite() {
		t.Error("PointOneCenter not finite")
	}
	rng := rand.New(rand.NewSource(1))
	s := ukc.SamplePoint(p, rng)
	if s.Dim() != 2 {
		t.Errorf("sample dim = %d", s.Dim())
	}
}

func TestFacadeOneCenter(t *testing.T) {
	pts := demoPoints(t)
	c, cost, err := ukc.OneCenter(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsFinite() || cost <= 0 {
		t.Fatalf("OneCenter = %v cost %g", c, cost)
	}
	_, opt, err := ukc.Optimal1Center(pts, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if cost > 2*opt+1e-6 {
		t.Errorf("Theorem 2.1 violated via facade: %g > 2·%g", cost, opt)
	}
}

func TestFacadeMetric(t *testing.T) {
	g := ukc.NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
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
	p2, err := ukc.NewFinitePoint([]int{2, 3}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	inst := ukc.NewFiniteInstance(space, []ukc.FinitePoint{p1, p2}, nil)
	res, err := ukc.NewSolver[int](ukc.WithRule(ukc.RuleOC)).Solve(context.Background(), inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("centers = %v", res.Centers)
	}
	// Two centers, one per path end: expected cost ≤ 1.
	if res.Ecost > 1+1e-9 {
		t.Errorf("Ecost = %g, want ≤ 1", res.Ecost)
	}
}

func TestFacade1D(t *testing.T) {
	pts := []ukc.Point{
		ukc.NewDeterministicPoint(ukc.Vec{0}),
		ukc.NewDeterministicPoint(ukc.Vec{10}),
	}
	res, err := ukc.Solve1D(pts, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-5) > 1e-6 {
		t.Errorf("1D cost = %g, want 5", res.Cost)
	}
	em, err := ukc.Solve1DEmax(pts, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if em.Cost < res.Cost-1e-9 {
		t.Errorf("Emax %g below maxE %g", em.Cost, res.Cost)
	}
}

func TestFacadeBaseline(t *testing.T) {
	pts := demoPoints(t)
	res, err := ukc.SolveBaseline(pts, 3, ukc.BaselineMode, ukc.BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 {
		t.Error("baseline returned no centers")
	}
	rng := rand.New(rand.NewSource(2))
	res, err = ukc.SolveBaseline(pts, 3, ukc.BaselineSample, ukc.BaselineOptions{Rng: rng, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ecost <= 0 {
		t.Error("sample baseline cost not positive")
	}
}

func TestFacadeIO(t *testing.T) {
	pts := demoPoints(t)
	var buf bytes.Buffer
	if err := ukc.WriteInstance(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ukc.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Errorf("round trip size %d, want %d", len(got), len(pts))
	}
}

func TestFacadeAssign(t *testing.T) {
	inst := ukc.NewEuclideanInstance(demoPoints(t))
	centers := []ukc.Vec{{0, 0}, {10, 10}}
	for _, rule := range []ukc.Rule{ukc.RuleED, ukc.RuleEP, ukc.RuleOC} {
		assign, err := ukc.NewSolver[ukc.Vec](ukc.WithRule(rule)).Assign(context.Background(), inst, centers)
		if err != nil {
			t.Fatal(err)
		}
		if len(assign) != inst.N() {
			t.Fatalf("assign length %d", len(assign))
		}
	}
}
