package core

// Failure-injection tests: malformed instances must surface as errors, not
// panics deep inside the geometry code.

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// solveEuclidean compiles a Euclidean point set and runs the unified
// pipeline on it.
func solveEuclidean(pts []uncertain.Point[geom.Vec], k int, opts Options) (Result[geom.Vec], error) {
	ctx := context.Background()
	c, err := Compile[geom.Vec](ctx, euclid, pts, nil)
	if err != nil {
		return Result[geom.Vec]{}, err
	}
	return SolveCompiled(ctx, c, k, opts)
}

func mixedDimSet() []uncertain.Point[geom.Vec] {
	return []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{0, 0}),
		uncertain.NewDeterministic(geom.Vec{1}), // wrong dimension
	}
}

func TestSolveEuclideanRejectsMixedDimensions(t *testing.T) {
	if _, err := solveEuclidean(mixedDimSet(), 1, Options{}); err == nil {
		t.Error("mixed-dimension set accepted")
	}
}

func TestOneCenterRejectsMixedDimensions(t *testing.T) {
	if _, _, err := OneCenterApprox(mixedDimSet()); err == nil {
		t.Error("OneCenterApprox accepted mixed dimensions")
	}
	if _, _, err := OneCenterFirstExpectedPoint(mixedDimSet()); err == nil {
		t.Error("OneCenterFirstExpectedPoint accepted mixed dimensions")
	}
	if _, _, err := Optimal1CenterEuclidean(mixedDimSet(), 1e-6); err == nil {
		t.Error("Optimal1CenterEuclidean accepted mixed dimensions")
	}
}

func TestCommonDim(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{0, 0}),
		uncertain.NewDeterministic(geom.Vec{1, 1}),
	}
	d, err := uncertain.CommonDim(pts)
	if err != nil || d != 2 {
		t.Errorf("CommonDim = %d, %v", d, err)
	}
	if _, err := uncertain.CommonDim(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := uncertain.CommonDim(mixedDimSet()); err == nil {
		t.Error("mixed dims accepted")
	}
}

// TestSolveEuclideanHugeCoordinates: extreme but finite magnitudes must not
// produce NaN costs.
func TestSolveEuclideanHugeCoordinates(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{1e150, 0}),
		uncertain.NewDeterministic(geom.Vec{-1e150, 0}),
	}
	res, err := solveEuclidean(pts, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ecost != res.Ecost { // NaN check
		t.Error("NaN cost on huge coordinates")
	}
}

// TestSolveEuclideanDuplicateLocations: points whose locations coincide are
// legitimate (a certain point written redundantly).
func TestSolveEuclideanDuplicateLocations(t *testing.T) {
	p, err := uncertain.New(
		[]geom.Vec{{1, 1}, {1, 1}, {1, 1}},
		[]float64{0.3, 0.3, 0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveEuclidean([]uncertain.Point[geom.Vec]{p}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ecost != 0 {
		t.Errorf("Ecost = %g, want 0 for a degenerate certain point", res.Ecost)
	}
}

// TestSolveEuclideanKLargerThanN: more centers than points is legal and
// drives the certain radius to zero.
func TestSolveEuclideanKLargerThanN(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{0, 0}),
		uncertain.NewDeterministic(geom.Vec{5, 5}),
	}
	res, err := solveEuclidean(pts, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CertainRadius != 0 || res.Ecost != 0 {
		t.Errorf("radius=%g ecost=%g, want 0", res.CertainRadius, res.Ecost)
	}
}

// TestSolveEuclideanZeroProbabilityLocation: zero-probability atoms are
// valid and must not influence costs (they never realize) though they may
// shift surrogates of the OC kind is NOT allowed — the weighted median
// ignores them by construction.
func TestSolveEuclideanZeroProbabilityLocation(t *testing.T) {
	p, err := uncertain.New(
		[]geom.Vec{{0, 0}, {1000, 1000}},
		[]float64{1, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	pts := []uncertain.Point[geom.Vec]{p}
	res, err := solveEuclidean(pts, 1, Options{
		Surrogate: SurrogateOneCenter, Rule: RuleOC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ecost > 1e-9 {
		t.Errorf("Ecost = %g; the zero-probability outlier leaked into the cost", res.Ecost)
	}
}
