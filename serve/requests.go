package serve

import (
	"context"
	"time"

	ukc "repro"
)

// RequestStats is the per-request serving telemetry attached to every
// response: which shard served it, how long it queued, how long it
// executed, and whether it ran entirely on warm caches. CacheHit is false
// exactly when a memoized-cache build completed on the instance during
// this request's execution — a cold or post-eviction request, or (rarely)
// a concurrent request's build landing inside this one's window; the
// attribution is per instance, not per call, which is what makes it
// race-free against eviction.
type RequestStats struct {
	Shard    int
	Queue    time.Duration
	Exec     time.Duration
	CacheHit bool
}

// SolveRequest asks for the full surrogate k-center pipeline
// (Solver.Solve) on a registered instance. Deadline, when positive,
// overrides the server default for this request; it covers queue wait plus
// execution and layers onto the caller's context.
type SolveRequest struct {
	Instance string
	K        int
	Deadline time.Duration
}

// SolveResponse carries the pipeline result and the request telemetry.
type SolveResponse[P any] struct {
	Result ukc.ResultOf[P]
	Stats  RequestStats
}

// Solve runs the uncertain k-center pipeline on the named instance through
// the shard's admission, deadline and eviction machinery. Results are
// bit-identical to calling the server's solver directly on the same
// instance — serving changes scheduling, never answers.
func (s *Server[P]) Solve(ctx context.Context, req SolveRequest) (SolveResponse[P], error) {
	res, st, err := do(s, ctx, "solve", req.Instance, req.Deadline, func(ctx context.Context, inst ukc.Instance[P]) (ukc.ResultOf[P], error) {
		return s.solver.Solve(ctx, inst, req.K)
	})
	return SolveResponse[P]{Result: res, Stats: st}, err
}

// AssignRequest asks for the solver's assignment rule applied to an
// existing center set on a registered instance.
type AssignRequest[P any] struct {
	Instance string
	Centers  []P
	Deadline time.Duration
}

// AssignResponse carries the per-point center assignment.
type AssignResponse struct {
	Assign []int
	Stats  RequestStats
}

// Assign computes the solver's assignment rule for req.Centers on the
// named instance (the EP/OC rules reuse the instance's memoized
// surrogates).
func (s *Server[P]) Assign(ctx context.Context, req AssignRequest[P]) (AssignResponse, error) {
	assign, st, err := do(s, ctx, "assign", req.Instance, req.Deadline, func(ctx context.Context, inst ukc.Instance[P]) ([]int, error) {
		return s.solver.Assign(ctx, inst, req.Centers)
	})
	return AssignResponse{Assign: assign, Stats: st}, err
}

// EcostRequest asks for an exact expected cost on a registered instance:
// the assigned cost of (Centers, Assign) when Assign is non-nil, the
// unassigned cost of Centers (every realization snaps to its nearest
// center) when Assign is nil.
type EcostRequest[P any] struct {
	Instance string
	Centers  []P
	Assign   []int
	Deadline time.Duration
}

// EcostResponse carries one exact expected cost.
type EcostResponse struct {
	Ecost float64
	Stats RequestStats
}

// Ecost evaluates the exact expected cost on the named instance's compiled
// flat model.
func (s *Server[P]) Ecost(ctx context.Context, req EcostRequest[P]) (EcostResponse, error) {
	cost, st, err := do(s, ctx, "ecost", req.Instance, req.Deadline, func(ctx context.Context, inst ukc.Instance[P]) (float64, error) {
		if req.Assign != nil {
			return s.solver.Ecost(ctx, inst, req.Centers, req.Assign)
		}
		return s.solver.EcostUnassigned(ctx, inst, req.Centers)
	})
	return EcostResponse{Ecost: cost, Stats: st}, err
}

// EcostSweepRequest asks for the full single-swap neighborhood matrix of a
// center set on the exact unassigned objective (Solver.EcostSweep): k·m
// exact evaluations on the incremental swap evaluator, which computes
// candidate distances on demand and caches nothing.
type EcostSweepRequest[P any] struct {
	Instance string
	Centers  []P
	Deadline time.Duration
}

// EcostSweepResponse carries the sweep matrix and the snapped center
// indices (into the instance's candidate set).
type EcostSweepResponse struct {
	Sweep   [][]float64
	Snapped []int
	Stats   RequestStats
}

// EcostSweep evaluates the single-swap neighborhood of req.Centers on the
// named instance.
func (s *Server[P]) EcostSweep(ctx context.Context, req EcostSweepRequest[P]) (EcostSweepResponse, error) {
	resp, st, err := do(s, ctx, "sweep", req.Instance, req.Deadline, func(ctx context.Context, inst ukc.Instance[P]) (EcostSweepResponse, error) {
		sweep, snapped, err := s.solver.EcostSweep(ctx, inst, req.Centers)
		return EcostSweepResponse{Sweep: sweep, Snapped: snapped}, err
	})
	resp.Stats = st
	return resp, err
}

// UnassignedRequest asks for the unassigned-objective local search
// (Solver.SolveUnassigned) on a registered instance.
type UnassignedRequest struct {
	Instance string
	K        int
	Deadline time.Duration
}

// UnassignedResponse carries the local-search centers and their exact
// unassigned expected cost.
type UnassignedResponse[P any] struct {
	Centers []P
	Ecost   float64
	Stats   RequestStats
}

// SolveUnassigned runs the exact-evaluator local search for the unassigned
// objective on the named instance.
func (s *Server[P]) SolveUnassigned(ctx context.Context, req UnassignedRequest) (UnassignedResponse[P], error) {
	resp, st, err := do(s, ctx, "solve_unassigned", req.Instance, req.Deadline, func(ctx context.Context, inst ukc.Instance[P]) (UnassignedResponse[P], error) {
		centers, cost, err := s.solver.SolveUnassigned(ctx, inst, req.K)
		return UnassignedResponse[P]{Centers: centers, Ecost: cost}, err
	})
	resp.Stats = st
	return resp, err
}
