package ukc_test

// Godoc examples: runnable documentation with verified output.

import (
	"context"
	"fmt"

	ukc "repro"
)

func ExampleSolver_Solve() {
	// Two well-separated uncertain points and one center each.
	a, _ := ukc.NewPoint([]ukc.Vec{{0, 0}, {0, 2}}, []float64{0.5, 0.5})
	b, _ := ukc.NewPoint([]ukc.Vec{{10, 0}, {10, 2}}, []float64{0.5, 0.5})
	inst := ukc.NewEuclideanInstance([]ukc.Point{a, b})
	res, _ := ukc.NewSolver[ukc.Vec]().Solve(context.Background(), inst, 2)
	fmt.Printf("k=%d centers, assignment %v, Ecost %.0f\n",
		len(res.Centers), res.Assign, res.Ecost)
	// Output: k=2 centers, assignment [0 1], Ecost 1
}

func ExampleOneCenter() {
	// Theorem 2.1: the expected point is a 2-approximate uncertain 1-center.
	p, _ := ukc.NewPoint([]ukc.Vec{{0}, {4}}, []float64{0.5, 0.5})
	c, cost, _ := ukc.OneCenter([]ukc.Point{p})
	fmt.Printf("center %v, expected cost %.0f\n", c, cost)
	// Output: center (2), expected cost 2
}

func ExampleExpectedPoint() {
	p, _ := ukc.NewPoint([]ukc.Vec{{0, 0}, {4, 8}}, []float64{0.75, 0.25})
	fmt.Println(ukc.ExpectedPoint(p))
	// Output: (1, 2)
}

func ExampleSolve1D() {
	pts := []ukc.Point{
		ukc.NewDeterministicPoint(ukc.Vec{0}),
		ukc.NewDeterministicPoint(ukc.Vec{10}),
		ukc.NewDeterministicPoint(ukc.Vec{100}),
	}
	res, _ := ukc.Solve1D(pts, 2, 0)
	fmt.Printf("cost %.0f with %d centers\n", res.Cost, len(res.Centers))
	// Output: cost 5 with 2 centers
}

func ExampleSolver_EcostUnassigned() {
	// A certain point at distance 3 from the only center.
	inst := ukc.NewEuclideanInstance([]ukc.Point{ukc.NewDeterministicPoint(ukc.Vec{3, 0})})
	cost, _ := ukc.NewSolver[ukc.Vec]().EcostUnassigned(context.Background(), inst, []ukc.Vec{{0, 0}})
	fmt.Printf("%.0f\n", cost)
	// Output: 3
}
