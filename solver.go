package ukc

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/clusterx"
	"repro/internal/core"
	"repro/obs"
)

// ResultOf is the generic solve result: centers, assignment, exact expected
// costs (assigned and unassigned), the surrogates the pipeline clustered,
// the deterministic radius achieved on them, and the certified ε.
type ResultOf[P any] = core.Result[P]

// Solver runs the paper's surrogate pipelines over instances of one
// location type P, configured once with functional options and reusable
// across instances and goroutines (a Solver is immutable after NewSolver).
//
// One generic pipeline serves both regimes: Euclidean instances are a
// specialization detected from the instance's space, not a separate code
// path. Every entry point takes a context and aborts mid-solve with
// ctx.Err() when it is canceled; WithParallelism(n) fans the hot loops out
// over a worker pool with bit-identical results.
//
// Every method compiles its instance implicitly on first use (see
// Instance.Compile): the validated flat model and its emax layout are
// built once per instance, and both surrogate kinds once on first use, then
// shared by all later calls — from this solver or another one — so
// repeated solves of one instance pay only the k-dependent stages. The
// swap evaluator of SolveUnassigned stores nothing per instance: it
// computes candidate distances on demand.
//
//	solver := ukc.NewSolver[ukc.Vec](ukc.WithRule(ukc.RuleEP), ukc.WithParallelism(8))
//	res, err := solver.Solve(ctx, ukc.NewEuclideanInstance(pts), 3)
type Solver[P any] struct {
	cfg solverConfig
}

// NewSolver builds a solver from functional options. The zero-option solver
// is the paper's recommended pipeline for the space it meets: expected-point
// surrogates + Gonzalez + EP assignment in Euclidean space (factor 4,
// O(nz + n log k)), 1-center surrogates + Gonzalez + ED assignment in
// general metric spaces (factor 7+2ε).
func NewSolver[P any](opts ...Option) *Solver[P] {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &Solver[P]{cfg: cfg}
}

// resolve fills the per-space defaults for options not set explicitly.
func (s *Solver[P]) resolve(eu bool) core.Options {
	opts := s.cfg.opts
	if !s.cfg.surrogateSet {
		if eu {
			opts.Surrogate = SurrogateExpectedPoint
		} else {
			opts.Surrogate = SurrogateOneCenter
		}
	}
	if !s.cfg.ruleSet {
		if eu {
			opts.Rule = RuleEP
		} else {
			opts.Rule = RuleED
		}
	}
	return opts
}

// checkCenters rejects centers the instance's space cannot measure — a
// Euclidean center of the wrong dimension or with a NaN or ±Inf
// coordinate, or a finite-space vertex outside [0, N) — so a malformed
// request fails with an error instead of panicking inside a distance loop.
// The exact kernels require finite distances: a NaN one never settles the
// E[max] sweep's tie groups, so the call would never return.
func checkCenters[P any](c *Compiled[P], centers []P) error {
	switch sp := any(c.Space()).(type) {
	case Euclidean:
		for i, ctr := range any(centers).([]Vec) {
			if len(ctr) != c.Dim() {
				return fmt.Errorf("ukc: center %d has dimension %d, instance has %d", i, len(ctr), c.Dim())
			}
			if !ctr.IsFinite() {
				return fmt.Errorf("ukc: center %d has a non-finite coordinate", i)
			}
		}
	case *FiniteSpace:
		for i, v := range any(centers).([]int) {
			if v < 0 || v >= sp.N() {
				return fmt.Errorf("ukc: center %d is vertex %d, outside [0,%d)", i, v, sp.N())
			}
		}
	}
	return nil
}

// obsCtx threads the solver's tracer into the request context, merging with
// any tracer the caller's context already carries (the serving layer
// installs one per executed request) so both see every span. With no solver
// tracer the context passes through untouched — the common case stays
// allocation-free.
func (s *Solver[P]) obsCtx(ctx context.Context) context.Context {
	if s.cfg.tracer == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ambient := obs.FromContext(ctx); ambient != nil {
		return obs.NewContext(ctx, obs.Multi(ambient, s.cfg.tracer))
	}
	return obs.NewContext(ctx, s.cfg.tracer)
}

// Solve runs the uncertain k-center pipeline (Theorems 2.1–2.7) on one
// instance: surrogate construction (memoized per instance), optional
// coreset, deterministic k-center on the surrogates, rule-based assignment,
// and exact expected costs on the compiled flat model. It returns min(k, n)
// centers for an instance of n points: every certain solver clamps a k
// above n, as kcenter.Gonzalez does, rather than rejecting it.
func (s *Solver[P]) Solve(ctx context.Context, inst Instance[P], k int) (ResultOf[P], error) {
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return ResultOf[P]{}, err
	}
	return core.SolveCompiled(ctx, c, k, s.resolve(c.IsEuclidean()))
}

// SolveUnassigned optimizes the paper's unassigned objective
// E[max_i min_j d(X_i, c_j)] directly by multi-start single-swap local
// search over the candidate set on the exact cost evaluator (the paper
// defines this version but gives no algorithm; see
// core.SolveUnassignedLSCompiled). Centers are drawn from the instance's candidate
// set, defaulting to all point locations (including zero-probability ones —
// pruning removes probability mass, not center sites). Candidate distances
// are computed on demand, so a solve holds O(N + n) scan state and no
// distance table, and each scan skips the candidates its certificates
// (DESIGN §11) show cannot improve, with the trajectory bit-identical to
// scanning every candidate. It returns at most min(k, m) centers for m
// candidates: a k above m is clamped, and duplicate candidates can end the
// farthest-first seed with fewer.
func (s *Solver[P]) SolveUnassigned(ctx context.Context, inst Instance[P], k int) ([]P, float64, error) {
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return nil, 0, err
	}
	return core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
		MaxIter:     s.cfg.maxIter,
		Parallelism: s.cfg.opts.Parallelism,
	})
}

// EcostSweep evaluates the full single-swap neighborhood of a center set on
// the exact unassigned objective. Each center is snapped to its nearest
// candidate in the instance's candidate set (defaulting to all point
// locations); the returned matrix has
// sweep[pos][c] = the exact E-cost of the snapped set with position pos
// replaced by candidate c, and sweep[pos][snapped[pos]] is the cost of the
// snapped set itself. The incremental evaluator of SolveUnassigned serves
// all k·m evaluations exactly, with candidate distances computed on demand;
// the scans run on the solver's worker pool with bit-identical results and
// honor ctx.
func (s *Solver[P]) EcostSweep(ctx context.Context, inst Instance[P], centers []P) (sweep [][]float64, snapped []int, err error) {
	if len(centers) == 0 {
		return nil, nil, fmt.Errorf("ukc: EcostSweep with no centers")
	}
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := checkCenters(c, centers); err != nil {
		return nil, nil, err
	}
	snapped = c.SnapToCandidates(centers)
	sweep, err = core.EcostSweepCompiled(ctx, c, snapped, core.Options{Parallelism: s.cfg.opts.Parallelism}.Workers(), false)
	if err != nil {
		return nil, nil, err
	}
	return sweep, snapped, nil
}

// SolveKMedian solves the uncertain k-median (expected sum of distances)
// with the surrogate reduction: 1-center surrogates, discrete local-search
// k-median over the candidate set (defaulting to all point locations),
// expected-distance assignment. The returned cost is the exact expected
// k-median cost of the assignment.
func (s *Solver[P]) SolveKMedian(ctx context.Context, inst Instance[P], k int) ([]P, []int, float64, error) {
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return nil, nil, 0, err
	}
	return clusterx.SolveUncertainKMedian(ctx, c, k, core.Options{Parallelism: s.cfg.opts.Parallelism}.Workers())
}

// SolveKMeans solves the uncertain k-means by the exact reduction (Lloyd on
// the expected points; the uncertain cost equals the certain cost plus the
// irreducible variance floor Σ Var(P_i), which is also returned). It is
// Euclidean-only: expected points do not exist in general metric spaces.
// The k-means++ seeding draws from WithSeed's generator; WithMaxIter bounds
// the Lloyd rounds.
func (s *Solver[P]) SolveKMeans(ctx context.Context, inst Instance[P], k int) (centers []P, assign []int, cost, varianceFloor float64, err error) {
	eu, ok := any(inst.Points).([]Point)
	if !ok || !inst.IsEuclidean() {
		return nil, nil, 0, 0, fmt.Errorf("ukc: SolveKMeans requires a Euclidean instance")
	}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	c, a, cost, floor, err := clusterx.SolveUncertainKMeans(ctx, eu, k, rng, s.cfg.maxIter)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return any(c).([]P), a, cost, floor, nil
}

// Ecost returns the exact assigned expected cost of (centers, assign) on
// the instance, using the solver's worker pool over the compiled flat
// model.
func (s *Solver[P]) Ecost(ctx context.Context, inst Instance[P], centers []P, assign []int) (float64, error) {
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return 0, err
	}
	if err := checkCenters(c, centers); err != nil {
		return 0, err
	}
	return c.EcostAssigned(ctx, centers, assign, core.Options{Parallelism: s.cfg.opts.Parallelism}.Workers())
}

// EcostUnassigned returns the exact unassigned expected cost of centers on
// the instance, using the solver's worker pool over the compiled flat
// model.
func (s *Solver[P]) EcostUnassigned(ctx context.Context, inst Instance[P], centers []P) (float64, error) {
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return 0, err
	}
	if err := checkCenters(c, centers); err != nil {
		return 0, err
	}
	return c.EcostUnassigned(ctx, centers, core.Options{Parallelism: s.cfg.opts.Parallelism}.Workers())
}

// Assign computes the solver's assignment rule for an existing center set
// on the instance (the rule defaults per-space exactly as in Solve). The
// EP and OC rules reuse the instance's memoized surrogates.
func (s *Solver[P]) Assign(ctx context.Context, inst Instance[P], centers []P) ([]int, error) {
	ctx = s.obsCtx(ctx)
	c, err := inst.Compile(ctx)
	if err != nil {
		return nil, err
	}
	if err := checkCenters(c, centers); err != nil {
		return nil, err
	}
	opts := s.resolve(c.IsEuclidean())
	return core.AssignCompiled(ctx, c, centers, opts.Rule, c.PipelineCandidates(), opts.Workers())
}
