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
	var resp SolveResponse[P]
	st, err := s.do(ctx, "solve", req.Instance, req.Deadline, func(ctx context.Context, ent *entry[P]) error {
		res, err := s.solver.Solve(ctx, ent.inst, req.K)
		if err != nil {
			return err
		}
		resp.Result = res
		return nil
	})
	if err != nil {
		// The shared resp must not be read here: on an early deadline
		// return the worker may still be writing it (do's abandonment
		// contract) — hand back a fresh value carrying only the stats.
		return SolveResponse[P]{Stats: st}, err
	}
	resp.Stats = st
	return resp, nil
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
	var resp AssignResponse
	st, err := s.do(ctx, "assign", req.Instance, req.Deadline, func(ctx context.Context, ent *entry[P]) error {
		assign, err := s.solver.Assign(ctx, ent.inst, req.Centers)
		if err != nil {
			return err
		}
		resp.Assign = assign
		return nil
	})
	if err != nil {
		return AssignResponse{Stats: st}, err
	}
	resp.Stats = st
	return resp, nil
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
	var resp EcostResponse
	st, err := s.do(ctx, "ecost", req.Instance, req.Deadline, func(ctx context.Context, ent *entry[P]) error {
		var (
			cost float64
			err  error
		)
		if req.Assign != nil {
			cost, err = s.solver.Ecost(ctx, ent.inst, req.Centers, req.Assign)
		} else {
			cost, err = s.solver.EcostUnassigned(ctx, ent.inst, req.Centers)
		}
		if err != nil {
			return err
		}
		resp.Ecost = cost
		return nil
	})
	if err != nil {
		return EcostResponse{Stats: st}, err
	}
	resp.Stats = st
	return resp, nil
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
	var resp EcostSweepResponse
	st, err := s.do(ctx, "sweep", req.Instance, req.Deadline, func(ctx context.Context, ent *entry[P]) error {
		sweep, snapped, err := s.solver.EcostSweep(ctx, ent.inst, req.Centers)
		if err != nil {
			return err
		}
		resp.Sweep, resp.Snapped = sweep, snapped
		return nil
	})
	if err != nil {
		return EcostSweepResponse{Stats: st}, err
	}
	resp.Stats = st
	return resp, nil
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
	var resp UnassignedResponse[P]
	st, err := s.do(ctx, "solve_unassigned", req.Instance, req.Deadline, func(ctx context.Context, ent *entry[P]) error {
		centers, cost, err := s.solver.SolveUnassigned(ctx, ent.inst, req.K)
		if err != nil {
			return err
		}
		resp.Centers, resp.Ecost = centers, cost
		return nil
	})
	if err != nil {
		return UnassignedResponse[P]{Stats: st}, err
	}
	resp.Stats = st
	return resp, nil
}
