package core

import "fmt"

// Surrogate selects which certain stand-in replaces each uncertain point
// before the deterministic k-center step.
type Surrogate int

const (
	// SurrogateExpectedPoint uses P̄_i = Σ_j p_ij·P_ij (Euclidean only).
	SurrogateExpectedPoint Surrogate = iota
	// SurrogateOneCenter uses P̃_i, the 1-center (weighted 1-median) of the
	// point's own distribution (any metric).
	SurrogateOneCenter
)

// String names the surrogate.
func (s Surrogate) String() string {
	switch s {
	case SurrogateExpectedPoint:
		return "expected-point"
	case SurrogateOneCenter:
		return "one-center"
	default:
		return fmt.Sprintf("Surrogate(%d)", int(s))
	}
}

// Solver selects the deterministic k-center algorithm run on the surrogates.
type Solver int

const (
	// SolverGonzalez is the greedy 2-approximation (ε = 1 in the theorems):
	// the paper's O(nz + n·log k) pipelines.
	SolverGonzalez Solver = iota
	// SolverEps is the Euclidean (1+ε) grid scheme (kcenter.EpsApprox).
	SolverEps
	// SolverExactDiscrete is the exact discrete k-center over the surrogate
	// set (kcenter.DiscreteBnB) — in a finite metric space with all points
	// as candidates this realizes ε = 0.
	SolverExactDiscrete
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case SolverGonzalez:
		return "gonzalez"
	case SolverEps:
		return "eps-approx"
	case SolverExactDiscrete:
		return "exact-discrete"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Result is the output of a surrogate pipeline.
type Result[P any] struct {
	// Centers are the k chosen centers.
	Centers []P
	// Assign maps each input point to its center index under the requested
	// assignment rule.
	Assign []int
	// Ecost is the exact expected-max cost of (Centers, Assign).
	Ecost float64
	// EcostUnassigned is the exact unassigned expected cost of Centers
	// (every realization snaps to its nearest center); always ≤ Ecost.
	EcostUnassigned float64
	// Surrogates are the certain stand-ins the pipeline clustered.
	Surrogates []P
	// CertainRadius is the deterministic k-center radius achieved on the
	// surrogates (the paper's cost(c_1…c_k)).
	CertainRadius float64
	// EffectiveEps is the ε certified by the certain solver (1 for
	// Gonzalez, 0 for exact discrete, the grid value for SolverEps).
	EffectiveEps float64
}
