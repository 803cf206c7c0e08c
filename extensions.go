package ukc

// Extensions beyond the paper's Table 1: the future-work directions its
// conclusion announces (uncertain k-median and k-means via the same
// surrogate reduction, solved by Solver.SolveKMedian and Solver.SolveKMeans)
// and one-pass streaming variants of the pipelines.

import (
	"repro/internal/clusterx"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/stream"
)

// EMedianCost returns the exact uncertain k-median cost of an assignment.
func EMedianCost(pts []Point, centers []Vec, assign []int) (float64, error) {
	return clusterx.EMedianCostAssigned[geom.Vec](metricspace.Euclidean{}, pts, centers, assign)
}

// EMeansCost returns the exact uncertain k-means cost of an assignment
// (via the bias–variance identity).
func EMeansCost(pts []Point, centers []Vec, assign []int) (float64, error) {
	return clusterx.EMeansCostAssigned(pts, centers, assign)
}

// PointVariance returns Var(P) = E‖X − P̄‖² of one uncertain point — the
// irreducible per-point contribution to the uncertain k-means cost.
func PointVariance(p Point) float64 { return clusterx.Variance(p) }

// Stream1Center is a one-pass uncertain 1-center sketch (O(1) memory):
// expected-point surrogates into a streaming minimum enclosing ball.
type Stream1Center = stream.Uncertain1Center

// StreamKCenter is a one-pass uncertain k-center sketch (O(k) memory):
// expected-point surrogates into the doubling algorithm.
type StreamKCenter = stream.UncertainKCenter

// NewStreamKCenter returns a streaming uncertain k-center sketch.
func NewStreamKCenter(k int) (*StreamKCenter, error) {
	return stream.NewUncertainKCenter(k)
}
