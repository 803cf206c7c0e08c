package ukc

import (
	"repro/internal/core"
	"repro/obs"
)

// CertainSolver names the deterministic k-center algorithm a Solver runs on
// the surrogates: SolverGonzalez, SolverEps, or SolverExactDiscrete.
type CertainSolver = core.Solver

// Rule is the assignment rule: RuleED, RuleEP (Euclidean only), or RuleOC.
type Rule = core.Rule

// Surrogate is the certain stand-in construction: SurrogateExpectedPoint
// (Euclidean only) or SurrogateOneCenter.
type Surrogate = core.Surrogate

// solverConfig is the resolved configuration a Solver carries. Rule and
// surrogate track whether they were set explicitly so the solver can default
// them per-space: expected point + EP in Euclidean space (the paper's
// factor-4 pipeline), 1-center + ED elsewhere (Theorem 2.6).
type solverConfig struct {
	opts         core.Options
	ruleSet      bool
	surrogateSet bool
	seed         int64
	maxIter      int
	noSwapCache  bool
	tracer       obs.Tracer
}

func defaultConfig() solverConfig {
	return solverConfig{seed: 1}
}

// Option configures a Solver; pass them to NewSolver.
type Option func(*solverConfig)

// WithRule fixes the assignment rule. Without it, the solver uses RuleEP in
// Euclidean space and RuleED elsewhere — the best proven factor per regime.
func WithRule(r Rule) Option {
	return func(c *solverConfig) { c.opts.Rule = r; c.ruleSet = true }
}

// WithSurrogate fixes the surrogate construction. Without it, the solver
// uses expected points in Euclidean space and 1-centers elsewhere.
func WithSurrogate(s Surrogate) Option {
	return func(c *solverConfig) { c.opts.Surrogate = s; c.surrogateSet = true }
}

// WithCertainSolver selects the deterministic k-center algorithm run on the
// surrogates (default SolverGonzalez, the O(nk) 2-approximation).
func WithCertainSolver(s CertainSolver) Option {
	return func(c *solverConfig) { c.opts.Solver = s }
}

// WithEps sets the ε of SolverEps (default 0.5).
func WithEps(eps float64) Option {
	return func(c *solverConfig) { c.opts.Eps = eps }
}

// WithCoreset enables the coreset pre-step: the certain solver runs on an
// additive-error k-center coreset of the surrogates of at most maxSize
// points (0 = no cap), degrading the certain radius by at most eps·r_k.
// Worth it only for super-linear certain solvers (SolverEps,
// SolverExactDiscrete).
func WithCoreset(eps float64, maxSize int) Option {
	return func(c *solverConfig) {
		c.opts.CoresetEps = eps
		c.opts.CoresetMaxSize = maxSize
	}
}

// WithParallelism gates the worker-pool paths of the hot loops — surrogate
// construction, assignment, exact E-cost/E[max] evaluation, and the
// local-search neighborhood scan: n = 0 or 1 runs sequentially, n > 1 uses
// n workers, and a negative n uses one worker per logical CPU.
//
// Parallel runs are bit-identical to sequential ones: the pools fan out
// over disjoint index ranges and every per-index computation is unchanged,
// so centers, assignments and costs do not depend on n.
func WithParallelism(n int) Option {
	return func(c *solverConfig) { c.opts.Parallelism = n }
}

// WithSeed seeds the randomized components (k-means++ seeding; default 1).
// The surrogate k-center pipelines are deterministic and unaffected.
func WithSeed(seed int64) Option {
	return func(c *solverConfig) { c.seed = seed }
}

// WithGonzalezStart sets the Gonzalez start index (default 0).
func WithGonzalezStart(i int) Option {
	return func(c *solverConfig) { c.opts.Start = i }
}

// WithMaxNodes bounds the branch-and-bound work of the discrete exact
// solvers (SolverExactDiscrete and the feasibility tests inside SolverEps);
// 0 keeps the defaults.
func WithMaxNodes(n int) Option {
	return func(c *solverConfig) {
		c.opts.MaxNodes = n
		c.opts.EpsOptions.MaxNodes = n
	}
}

// WithMaxIter bounds the iterative optimizers (unassigned local-search swap
// rounds, Lloyd rounds in SolveKMeans; default 100).
func WithMaxIter(n int) Option {
	return func(c *solverConfig) { c.maxIter = n }
}

// WithSwapCache toggles the incremental swap evaluator behind
// SolveUnassigned and EcostSweep's fast path (default true): the n×m table
// of per-point, per-candidate distance RVs is built once per INSTANCE —
// memoized in the instance's compiled representation and shared by every
// later SolveUnassigned/EcostSweep call on it — making each candidate-swap
// evaluation one O(Σz_i) min pass plus the exact sweep, with zero metric
// calls and zero steady-state allocations.
//
// The cache costs 8 bytes per (candidate, support atom) pair — n·m·z
// entries for n points of z locations and m candidates — and lives as long
// as the instance's compiled representation (drop the Instance to release
// it). WithSwapCache(false) falls back to from-scratch evaluation of every
// swap without building or touching the instance cache: the right call when
// m·Σz_i is too large to hold in memory (e.g. n = m = 10⁴, z = 8 is already
// ~6.4 GB; n = m = 10⁵, z = 8 would need ~640 GB), or when pinning down a
// discrepancy against the oracle path.
// Costs and swap trajectories are bit-identical either way.
func WithSwapCache(enabled bool) Option {
	return func(c *solverConfig) { c.noSwapCache = !enabled }
}

// WithTracer installs an observability tracer on the solver: every solve
// stamps it into the request context, and the instrumented stages report
// spans through it — compilation phases (compile.validate, compile.flatten),
// memoized cache builds with their byte sizes (surrogate.build.*,
// evaluator.build — these fire once per instance lifetime, or again after a
// serving-layer eviction), the solve pipeline phases (solve.surrogates,
// solve.certain, solve.assign, solve.ecost), the swap sweep ("sweep"), and
// the local-search descent (ls.descent, plus one ls.iter per round carrying
// swaps evaluated, improvements taken and the E-cost trajectory in
// micro-units). DESIGN.md §8 documents the span vocabulary.
//
// The default (no tracer) costs nothing: every instrumentation site is a
// nil check — zero allocations and no clock reads on the hot paths, pinned
// by BenchmarkObsOverhead and the obs package's allocation tests. The
// tracer must be goroutine-safe; it composes with a tracer already carried
// by the caller's context (e.g. the serving layer's per-instance
// cache-build tracer) — both see every span.
func WithTracer(tr obs.Tracer) Option {
	return func(c *solverConfig) { c.tracer = tr }
}
