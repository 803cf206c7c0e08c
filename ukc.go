// Package ukc is the public API of this repository: a Go implementation of
//
//	Alipour & Jafari, "Improvements on the k-center problem for uncertain
//	data", PODS 2018 (arXiv:1708.09180)
//
// — constant-factor approximation algorithms for the k-center problem when
// every input point is a discrete probability distribution over possible
// locations.
//
// # Model
//
// An uncertain point is a finite distribution over locations; a realization
// draws one location per point independently. The cost of k centers is the
// expected maximum distance over realizations, either with a fixed per-point
// assignment (assigned versions) or with each realization snapping to its
// nearest center (unassigned version). See DESIGN.md for the full problem
// statement and the per-theorem guarantees.
//
// # Quick start
//
//	pts := []ukc.Point{ /* uncertain points in R^d */ }
//	solver := ukc.NewSolver[ukc.Vec](ukc.WithRule(ukc.RuleEP), ukc.WithParallelism(8))
//	res, err := solver.Solve(ctx, ukc.NewEuclideanInstance(pts), 3)
//	// res.Centers, res.Assign, res.Ecost (exact expected cost)
//
// The primary API is generic: an Instance[P] bundles uncertain points, a
// metric Space[P] and a candidate set, and a Solver[P] — configured once
// with functional options — runs one unified pipeline over any space, with
// Euclidean space as a specialization rather than a parallel code path
// (finite/graph metrics use the 1-center surrogate in place of the expected
// point). Every solve takes a context.Context and aborts mid-solve on
// cancellation; WithParallelism(n) fans the hot loops out over a worker
// pool with bit-identical results. Long-lived processes that serve many
// instances use package serve, which adds admission control, deadlines and
// cache eviction around the same Solver.
//
// The subpackages under internal/ hold the substrates (geometry, metric
// spaces, graph shortest paths, the exact E[max] evaluator, deterministic
// k-center solvers, brute-force oracles, workload generators and the
// experiment harness); this package re-exports the surface a downstream
// user needs.
package ukc

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/arena"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/geom"
	"repro/internal/graphmetric"
	"repro/internal/metricspace"
	"repro/internal/onedim"
	"repro/internal/uncertain"
)

// Vec is a point in R^d.
type Vec = geom.Vec

// Point is an uncertain point in Euclidean space: a discrete distribution
// over location vectors.
type Point = uncertain.Point[geom.Vec]

// FinitePoint is an uncertain point over the vertices of a finite metric
// space.
type FinitePoint = uncertain.Point[int]

// FiniteSpace is an explicit finite metric space (distance matrix).
type FiniteSpace = metricspace.Finite

// Graph is a weighted undirected graph whose shortest-path metric can serve
// as the finite space of an instance (see NewGraphInstance).
type Graph = graphmetric.Graph

// Result is the output of the solvers: centers, assignment, and exact
// expected costs.
type Result = core.Result[geom.Vec]

// FiniteResult is Result over a finite metric space.
type FiniteResult = core.Result[int]

// Assignment rules (the paper's three restricted-assigned variants).
const (
	RuleED = core.RuleED // expected distance
	RuleEP = core.RuleEP // expected point (Euclidean only)
	RuleOC = core.RuleOC // 1-center
)

// Surrogate constructions.
const (
	SurrogateExpectedPoint = core.SurrogateExpectedPoint
	SurrogateOneCenter     = core.SurrogateOneCenter
)

// Deterministic k-center solvers for the surrogate step.
const (
	SolverGonzalez      = core.SolverGonzalez
	SolverEps           = core.SolverEps
	SolverExactDiscrete = core.SolverExactDiscrete
)

// NewPoint validates and constructs an uncertain point from locations and
// probabilities (which must sum to 1).
func NewPoint(locs []Vec, probs []float64) (Point, error) {
	return uncertain.New(locs, probs)
}

// NewUniformPoint constructs an uncertain point uniform over locs.
func NewUniformPoint(locs []Vec) (Point, error) {
	return uncertain.NewUniform(locs)
}

// NewDeterministicPoint wraps a certain location as an uncertain point.
func NewDeterministicPoint(loc Vec) Point {
	return uncertain.NewDeterministic(loc)
}

// NewFinitePoint constructs an uncertain point over vertex indices.
func NewFinitePoint(locs []int, probs []float64) (FinitePoint, error) {
	return uncertain.New(locs, probs)
}

// NewGraph returns an empty weighted graph on n vertices; add edges with
// AddEdge, then derive its metric with (*Graph).Metric.
func NewGraph(n int) *Graph { return graphmetric.New(n) }

// OneCenter returns the Theorem 2.1 uncertain 1-center: an expected point
// with exact cost at most twice the optimum.
func OneCenter(pts []Point) (Vec, float64, error) {
	return core.OneCenterApprox(pts)
}

// Optimal1Center numerically computes the true optimal Euclidean uncertain
// 1-center (the cost function is convex); tol is relative to the instance
// diameter.
func Optimal1Center(pts []Point, tol float64) (Vec, float64, error) {
	return core.Optimal1CenterEuclidean(pts, tol)
}

// ExpectedPoint returns P̄ = Σ p_j·P_j of one uncertain point.
func ExpectedPoint(p Point) Vec { return uncertain.ExpectedPoint(p) }

// PointOneCenter returns P̃, the weighted 1-median of a point's own
// distribution (Weiszfeld).
func PointOneCenter(p Point) Vec { return uncertain.OneCenterEuclidean(p) }

// Solve1D solves the 1D max-of-expectations k-center exactly (certified
// bisection), the Wang–Zhang setting behind Table 1 row 8.
func Solve1D(pts []Point, k int, tol float64) (onedim.Result, error) {
	return onedim.Solve(pts, k, tol)
}

// Solve1DEmax minimizes the paper's E[max] objective in 1D with a certified
// lower bound.
func Solve1DEmax(pts []Point, k int, tol float64) (onedim.Result, error) {
	return onedim.SolveEmax(pts, k, tol)
}

// Baseline methods for comparison experiments.
const (
	BaselineMode           = baseline.MethodMode
	BaselineSample         = baseline.MethodSample
	BaselineMedianLocation = baseline.MethodMedianLocation
)

// BaselineOptions configures SolveBaseline.
type BaselineOptions = baseline.Options

// SolveBaseline runs one of the representative-point baselines.
func SolveBaseline(pts []Point, k int, method baseline.Method, opts BaselineOptions) (Result, error) {
	return baseline.Solve[geom.Vec](metricspace.Euclidean{}, pts, k, method, opts)
}

// WriteInstance serializes a Euclidean instance as JSON.
func WriteInstance(w io.Writer, pts []Point) error {
	return dataio.WriteEuclidean(w, pts)
}

// ReadInstance parses and validates a Euclidean instance.
func ReadInstance(r io.Reader) ([]Point, error) {
	return dataio.ReadEuclidean(r)
}

// ReadCompiledInstance parses a Euclidean instance straight into a
// ready-to-solve Instance whose compiled representation is already built:
// the dataset is decoded, validated, pruned and flattened in a single pass,
// and every later solve reuses that model — the loader for serving systems
// that read once and solve many times.
func ReadCompiledInstance(r io.Reader) (Instance[Vec], error) {
	c, err := dataio.ReadEuclideanCompiled(r)
	if err != nil {
		return Instance[Vec]{}, err
	}
	return newCompiledInstance(c), nil
}

// ReadCompiledFiniteInstance is ReadCompiledInstance for finite-space
// datasets; the candidate set defaults to all space points.
func ReadCompiledFiniteInstance(r io.Reader) (Instance[int], error) {
	_, c, err := dataio.ReadFiniteCompiled(r)
	if err != nil {
		return Instance[int]{}, err
	}
	return newCompiledInstance(c), nil
}

// OpenSnapshotInstance opens a Euclidean ".ukc" snapshot (written by
// package store or cmd/ukfreeze) as a ready-to-solve Instance whose
// compiled representation aliases the snapshot bytes zero-copy: no JSON
// decode, no validation of individual atoms, no recompilation — open cost
// is one bounds/CRC sweep. The underlying mapping stays open for the
// process lifetime; use package store directly when the snapshot's
// lifecycle must be managed explicitly.
func OpenSnapshotInstance(path string) (Instance[Vec], error) {
	f, err := arena.Open(context.Background(), path, arena.Options{})
	if err != nil {
		return Instance[Vec]{}, err
	}
	c, err := f.Euclidean()
	if err != nil {
		f.Close()
		return Instance[Vec]{}, fmt.Errorf("ukc: %s: %w", path, err)
	}
	return newCompiledInstance(c), nil
}

// OpenSnapshotFiniteInstance is OpenSnapshotInstance for finite-kind
// snapshots.
func OpenSnapshotFiniteInstance(path string) (Instance[int], error) {
	f, err := arena.Open(context.Background(), path, arena.Options{})
	if err != nil {
		return Instance[int]{}, err
	}
	c, err := f.Finite()
	if err != nil {
		f.Close()
		return Instance[int]{}, fmt.Errorf("ukc: %s: %w", path, err)
	}
	return newCompiledInstance(c), nil
}

// SamplePoint draws one realization from an uncertain point.
func SamplePoint(p Point, rng *rand.Rand) Vec { return p.Sample(rng) }
