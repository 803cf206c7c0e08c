package core

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/kcenter"
	"repro/internal/metricspace"
	"repro/internal/par"
	"repro/internal/uncertain"
	"repro/obs"
)

// Options configures the unified Solve pipeline. The zero value is the
// paper's fast Euclidean pipeline (expected-point surrogates, Gonzalez, ED
// assignment); non-Euclidean spaces must set Surrogate to
// SurrogateOneCenter explicitly (the public ukc.Solver does this per-space
// defaulting for its callers).
type Options struct {
	// Surrogate selects the certain stand-in construction. In a
	// non-Euclidean space SurrogateExpectedPoint is rejected (expected
	// points need linear structure) — callers there must pass
	// SurrogateOneCenter.
	Surrogate Surrogate
	// Rule is the assignment rule. RuleEP is Euclidean-only.
	Rule Rule
	// Solver is the deterministic k-center algorithm run on the surrogates.
	// SolverEps is Euclidean-only.
	Solver Solver
	// Eps is the ε for SolverEps (default 0.5).
	Eps float64
	// EpsOptions tunes the grid solver.
	EpsOptions kcenter.EpsOptions
	// Start is the Gonzalez start index (default 0).
	Start int
	// MaxNodes bounds SolverExactDiscrete's branch-and-bound (0 = default).
	MaxNodes int
	// CoresetEps, when positive, shrinks the surrogate set with an
	// additive-error k-center coreset (kcenter.Coreset) before the certain
	// solver runs. The deterministic radius degrades by at most
	// CoresetEps·r_k, i.e. O(CoresetEps)·OPT. Worth it only when the solver
	// is super-linear (SolverEps, SolverExactDiscrete) — Gonzalez is already
	// O(nk) and the coreset construction costs as much as running it.
	CoresetEps float64
	// CoresetMaxSize caps the coreset size (0 = no cap).
	CoresetMaxSize int
	// Parallelism gates the worker-pool paths of the hot loops (surrogate
	// construction, assignment, exact cost evaluation): 0 or 1 runs
	// sequentially, n > 1 uses n workers, and a negative value uses one
	// worker per logical CPU. Parallel runs are bit-identical to sequential
	// ones: the loops fan out over disjoint point indices and every
	// per-index computation is unchanged.
	Parallelism int
}

// Workers normalizes Options.Parallelism to a worker count for par.For:
// 0 means sequential, negative means one worker per logical CPU.
func (o Options) Workers() int {
	switch {
	case o.Parallelism == 0:
		return 1
	case o.Parallelism < 0:
		return par.Workers(0)
	default:
		return o.Parallelism
	}
}

// vecsAsP converts a []geom.Vec back to []P; callers only invoke it when
// the space was detected as Euclidean, which proves P = geom.Vec.
func vecsAsP[P any](v []geom.Vec) []P { return any(v).([]P) }

// vecAsP converts one geom.Vec to P under the same proof.
func vecAsP[P any](v geom.Vec) P { return any(v).(P) }

// Solve is the unified uncertain k-center pipeline (Theorems 2.1–2.7): one
// generic code path over any metric space, with Euclidean space as a
// specialization detected from the space's concrete type rather than a
// separate entry point.
//
//  1. replace each uncertain point by its surrogate — expected point P̄
//     (Euclidean only, O(z) each) or 1-center P̃ (Weiszfeld in Euclidean
//     space, candidate scan elsewhere);
//  2. optionally shrink the surrogate set with a k-center coreset;
//  3. run the chosen deterministic k-center solver on the surrogates;
//  4. assign points to centers by the chosen rule;
//  5. report the exact expected costs (assigned and unassigned).
//
// candidates is the center/surrogate search space. It is required outside
// Euclidean space (typically space.Points() or all locations); in Euclidean
// space it may be nil, in which case discrete solvers search the surrogate
// set itself.
//
// Solve honors ctx: the surrogate, assignment, and cost loops check for
// cancellation between chunks and return ctx.Err() mid-solve; the certain
// solver stages check between stages. Parallelism > 1 runs the hot loops on
// a worker pool with bit-identical results (see Options.Parallelism).
//
// Solve compiles the point set per call. Callers that solve one instance
// repeatedly should Compile once and call SolveCompiled (which is what the
// public Instance/Solver API does) to share the validated flat model and the
// memoized surrogate/evaluator caches across solves.
func Solve[P any](ctx context.Context, space metricspace.Space[P], pts []uncertain.Point[P], candidates []P, k int, opts Options) (Result[P], error) {
	if space == nil {
		return Result[P]{}, fmt.Errorf("core: nil space")
	}
	c, err := Compile(ctx, space, pts, candidates)
	if err != nil {
		return Result[P]{}, err
	}
	if !c.IsEuclidean() && len(candidates) == 0 {
		return Result[P]{}, fmt.Errorf("core: a non-Euclidean space needs a candidate set")
	}
	return SolveCompiled(ctx, c, k, opts)
}

// SolveCompiled is Solve on a pre-compiled instance: validation, pruning and
// flattening already happened (once, at Compile time), the surrogate slice
// is served from the instance's memoized cache when a previous solve built
// it, and the exact cost evaluators consume the flat atom layout directly.
// Repeated solves of one Compiled with different k or options therefore pay
// only the k-dependent stages.
func SolveCompiled[P any](ctx context.Context, c *Compiled[P], k int, opts Options) (Result[P], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c == nil {
		return Result[P]{}, fmt.Errorf("core: nil compiled instance")
	}
	if k <= 0 {
		return Result[P]{}, fmt.Errorf("core: k = %d", k)
	}
	space := c.Space()
	isEuclidean := c.IsEuclidean()
	candidates := c.PipelineCandidates()
	workers := opts.Workers()
	tracer := obs.FromContext(ctx)

	// The surrogate span brackets the memoized lookup, not just a build: a
	// warm instance shows a near-zero duration here, a cold or evicted one
	// shows the build (which also reports its own surrogate.build.* span).
	ssp := obs.StartSpan(tracer, "solve.surrogates")
	surrogates, err := c.Surrogates(ctx, opts.Surrogate, candidates, workers)
	if err != nil {
		return Result[P]{}, err
	}
	ssp.Int("points", len(surrogates))
	ssp.End()

	// Optional large-n path: run the certain solver on a coreset of the
	// surrogates instead of all of them.
	solveSet := surrogates
	if opts.CoresetEps > 0 {
		cs, err := kcenter.Coreset(space, surrogates, k, opts.CoresetEps, opts.CoresetMaxSize)
		if err != nil {
			return Result[P]{}, err
		}
		solveSet = kcenter.Select(surrogates, cs.Indices)
	}
	if err := ctx.Err(); err != nil {
		return Result[P]{}, err
	}

	csp := obs.StartSpan(tracer, "solve.certain")
	var centers []P
	var radius, effEps float64
	switch opts.Solver {
	case SolverGonzalez:
		idx, r, err := kcenter.Gonzalez(space, solveSet, k, opts.Start)
		if err != nil {
			return Result[P]{}, err
		}
		centers, radius, effEps = kcenter.Select(solveSet, idx), r, 1
	case SolverEps:
		if !isEuclidean {
			return Result[P]{}, fmt.Errorf("core: SolverEps requires a Euclidean space; use SolverExactDiscrete")
		}
		eps := opts.Eps
		if eps <= 0 {
			eps = 0.5
		}
		res, err := kcenter.EpsApprox(any(solveSet).([]geom.Vec), k, eps, opts.EpsOptions)
		if err != nil {
			return Result[P]{}, err
		}
		centers, radius, effEps = vecsAsP[P](res.Centers), res.Radius, res.EffectiveEps
	case SolverExactDiscrete:
		cands := candidates
		restricted := len(cands) == 0
		if restricted {
			// No explicit candidate set (Euclidean callers): search the
			// surrogate set itself, which is a 2-approximation of the
			// continuous surrogate optimum (ε = 1).
			cands = solveSet
		}
		maxNodes := opts.MaxNodes
		if maxNodes == 0 {
			maxNodes = opts.EpsOptions.MaxNodes
		}
		idx, r, err := kcenter.DiscreteBnB(space, solveSet, cands, k, maxNodes)
		if err != nil {
			return Result[P]{}, err
		}
		centers = make([]P, len(idx))
		for i, c := range idx {
			centers[i] = cands[c]
		}
		radius = r
		if restricted || isEuclidean {
			// Restricting centers to a discrete set in continuous space
			// certifies at best a 2-approximation of the continuous
			// surrogate optimum (ε = 1), regardless of how the candidate
			// set was chosen.
			effEps = 1
		} else {
			// Exact over the candidate set of a finite space; with
			// candidates = all space points this is the true certain
			// optimum (ε = 0).
			effEps = 0
		}
	default:
		return Result[P]{}, fmt.Errorf("core: unknown solver %v", opts.Solver)
	}
	csp.Int("k", k)
	csp.Int("solve_set", len(solveSet))
	csp.End()
	if err := ctx.Err(); err != nil {
		return Result[P]{}, err
	}

	if opts.CoresetEps > 0 {
		// Report the radius over ALL surrogates, not just the coreset.
		radius = kcenter.Radius(space, surrogates, centers)
	}
	asp := obs.StartSpan(tracer, "solve.assign")
	assign, err := AssignCompiled(ctx, c, centers, opts.Rule, candidates, workers)
	if err != nil {
		return Result[P]{}, err
	}
	asp.End()
	esp := obs.StartSpan(tracer, "solve.ecost")
	ecost, err := c.EcostAssigned(ctx, centers, assign, workers)
	if err != nil {
		return Result[P]{}, err
	}
	un, err := c.EcostUnassigned(ctx, centers, workers)
	if err != nil {
		return Result[P]{}, err
	}
	esp.Micros("ecost", ecost)
	esp.Micros("ecost_unassigned", un)
	esp.End()
	return Result[P]{
		Centers:         centers,
		Assign:          assign,
		Ecost:           ecost,
		EcostUnassigned: un,
		Surrogates:      surrogates,
		CertainRadius:   radius,
		EffectiveEps:    effEps,
	}, nil
}

// AssignCtx dispatches the assignment rule over a raw point set, compiling
// it per call; candidates is the surrogate search space for RuleOC in
// non-Euclidean spaces. Callers with a compiled instance should use
// AssignCompiled, which serves the EP/OC surrogates from the instance cache.
func AssignCtx[P any](ctx context.Context, space metricspace.Space[P], pts []uncertain.Point[P], centers []P, rule Rule, candidates []P, workers int) ([]int, error) {
	c, err := Compile(ctx, space, pts, candidates)
	if err != nil {
		return nil, err
	}
	return AssignCompiled(ctx, c, centers, rule, candidates, workers)
}

// AssignCompiled dispatches the assignment rule on a compiled instance,
// fanning out over points. The EP and OC rules assign each point to the
// center nearest its surrogate, so they reuse the instance's memoized
// surrogate slices — a second assignment (or a solve after an assignment)
// performs zero metric calls for surrogate construction. candidates is the
// surrogate search space for RuleOC outside Euclidean space.
func AssignCompiled[P any](ctx context.Context, c *Compiled[P], centers []P, rule Rule, candidates []P, workers int) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(centers) == 0 {
		return nil, fmt.Errorf("core: assignment with no centers")
	}
	space := c.Space()
	pts := c.Points()
	nearest := func(p P) int {
		best, bestD := 0, space.Dist(p, centers[0])
		for c := 1; c < len(centers); c++ {
			if d := space.Dist(p, centers[c]); d < bestD {
				best, bestD = c, d
			}
		}
		return best
	}
	switch rule {
	case RuleED:
		return par.Map(ctx, make([]int, len(pts)), workers, func(i int) int {
			best, bestE := -1, 0.0
			for c, ctr := range centers {
				e := uncertain.ExpectedDist(space, pts[i], ctr)
				if best < 0 || e < bestE {
					best, bestE = c, e
				}
			}
			return best
		})
	case RuleEP:
		if !c.IsEuclidean() {
			return nil, fmt.Errorf("core: the expected point rule requires a Euclidean space")
		}
		surr, err := c.Surrogates(ctx, SurrogateExpectedPoint, nil, workers)
		if err != nil {
			return nil, err
		}
		return par.Map(ctx, make([]int, len(pts)), workers, func(i int) int {
			return nearest(surr[i])
		})
	case RuleOC:
		if !c.IsEuclidean() && len(candidates) == 0 {
			return nil, fmt.Errorf("core: RuleOC needs a surrogate candidate set")
		}
		surr, err := c.Surrogates(ctx, SurrogateOneCenter, candidates, workers)
		if err != nil {
			return nil, err
		}
		return par.Map(ctx, make([]int, len(pts)), workers, func(i int) int {
			return nearest(surr[i])
		})
	default:
		return nil, fmt.Errorf("core: unknown rule %v", rule)
	}
}
