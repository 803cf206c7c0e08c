package ukc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// Space is the metric-space abstraction every solver runs against: a metric
// d over points of type P satisfying the metric axioms. The two regimes of
// the paper are concrete Spaces — Euclidean{} over Vec, and *FiniteSpace
// over vertex indices — and the generic pipeline treats Euclidean space as a
// specialization of the same code path, not a parallel one.
type Space[P any] = metricspace.Space[P]

// Euclidean is R^d with the L2 metric; the zero value is ready to use. An
// Instance over this space unlocks the Euclidean-only machinery (expected
// points, the EP rule, the (1+ε) grid solver).
type Euclidean = metricspace.Euclidean

// UncertainPoint is an uncertain point over an arbitrary location type: a
// discrete distribution over locations of type P.
type UncertainPoint[P any] = uncertain.Point[P]

// Compiled is the immutable per-instance compiled representation every
// pipeline consumes: the uncertain-point model validated, pruned of
// zero-probability atoms, and flattened into one structure-of-arrays atom
// arena, plus memoized per-instance caches (both surrogate kinds, the
// distance-RV swap evaluator) that successive solves share. Obtain one with
// Instance.Compile; every Solver method compiles implicitly on first use.
// A Compiled is goroutine-safe and its caches live exactly as long as it
// does — drop the instance to release them.
type Compiled[P any] = core.Compiled[P]

// compileCell is the shared once-per-instance compilation cache. Every copy
// of an Instance made after construction aliases the same cell, so every
// solver and a direct Compile call all observe one compiled model.
type compileCell[P any] struct {
	mu sync.Mutex
	c  *core.Compiled[P]
}

// Instance is one uncertain k-center problem instance: a set of uncertain
// points in a metric space, plus the candidate set discrete algorithms draw
// centers and surrogates from.
//
// Candidates may be nil in Euclidean space (continuous constructions exist
// there; discrete solvers then search the surrogate set). Outside Euclidean
// space a candidate set is required — use NewFiniteInstance or
// NewGraphInstance, which default it to all space points.
//
// An instance built by a constructor carries a shared compilation cache:
// the first solve (or explicit Compile call) validates, prunes and flattens
// the points once, and every later solve — from any goroutine or any
// Solver — reuses that compiled model and its memoized caches.
// Consequently the Space, Points and Candidates fields must be treated as
// immutable after the first solve; mutating them afterwards leaves the
// cache describing data that no longer exists. Instances assembled as bare
// struct literals (without a constructor) still work everywhere but compile
// per call, uncached.
type Instance[P any] struct {
	// Space is the metric the instance lives in.
	Space Space[P]
	// Points are the uncertain input points.
	Points []UncertainPoint[P]
	// Candidates is the center/surrogate search space for discrete
	// algorithms (exact discrete k-center, k-median, unassigned local
	// search, discrete 1-center surrogates).
	Candidates []P

	cc *compileCell[P]
}

// NewInstance assembles an instance over an arbitrary metric space.
func NewInstance[P any](space Space[P], pts []UncertainPoint[P], candidates []P) Instance[P] {
	return Instance[P]{Space: space, Points: pts, Candidates: candidates, cc: &compileCell[P]{}}
}

// NewEuclideanInstance wraps Euclidean uncertain points as an instance over
// R^d with no explicit candidate set; solvers that need one default to all
// point locations.
func NewEuclideanInstance(pts []Point) Instance[Vec] {
	return Instance[Vec]{Space: Euclidean{}, Points: pts, cc: &compileCell[Vec]{}}
}

// NewFiniteInstance wraps points over a finite metric space; a nil
// candidates defaults to all space points, the natural candidate set. A nil
// space leaves Space a nil interface rather than a typed nil pointer, so
// Validate and every Solver method reject the instance with an error.
func NewFiniteInstance(space *FiniteSpace, pts []FinitePoint, candidates []int) Instance[int] {
	in := Instance[int]{Points: pts, Candidates: candidates, cc: &compileCell[int]{}}
	if space != nil {
		in.Space = space
		if candidates == nil {
			in.Candidates = space.Points()
		}
	}
	return in
}

// NewGraphInstance derives the shortest-path metric of g and wraps points
// over its vertices as a finite instance with all vertices as candidates.
func NewGraphInstance(g *Graph, pts []FinitePoint) (Instance[int], error) {
	if g == nil {
		return Instance[int]{}, fmt.Errorf("ukc: nil graph")
	}
	space, err := g.Metric()
	if err != nil {
		return Instance[int]{}, err
	}
	return NewFiniteInstance(space, pts, nil), nil
}

// newCompiledInstance wraps an already-compiled model as an instance whose
// cache is pre-populated (the dataio compiled loaders use it).
func newCompiledInstance[P any](c *core.Compiled[P]) Instance[P] {
	return Instance[P]{
		Space:      c.Space(),
		Points:     c.Points(),
		Candidates: c.Candidates(),
		cc:         &compileCell[P]{c: c},
	}
}

// InstanceOf wraps an already-compiled model as an Instance whose compile
// cache is pre-populated: every Solver method called on the result consumes
// c directly, with no re-validation and no second compile. The serving
// layer (package serve) uses it to pin each registered instance to the one
// compiled model whose caches it meters and evicts.
func InstanceOf[P any](c *Compiled[P]) (Instance[P], error) {
	if c == nil {
		return Instance[P]{}, fmt.Errorf("ukc: InstanceOf(nil)")
	}
	return newCompiledInstance(c), nil
}

// Compile returns the instance's compiled representation, building it on
// first use: one validation pass (structural invariants, probability sums,
// Euclidean dimension agreement), zero-probability-atom pruning, and the
// flat atom arena every pipeline consumes. The result is cached in the
// instance (all copies of this instance share it) and reused by every
// Solver method, so repeated solves pay compilation once. Concurrent first
// calls are serialized; a call canceled mid-compile leaves the cache empty
// for the next caller. Instances assembled without a constructor have no
// cache cell and compile fresh on every call.
func (in Instance[P]) Compile(ctx context.Context) (*Compiled[P], error) {
	if in.cc == nil {
		return core.Compile(ctx, in.Space, in.Points, in.Candidates)
	}
	in.cc.mu.Lock()
	defer in.cc.mu.Unlock()
	if in.cc.c != nil {
		return in.cc.c, nil
	}
	c, err := core.Compile(ctx, in.Space, in.Points, in.Candidates)
	if err != nil {
		return nil, err
	}
	in.cc.c = c
	return c, nil
}

// N returns the number of uncertain points.
func (in Instance[P]) N() int { return len(in.Points) }

// MaxZ returns z = max_i z_i, the largest support size of any point
// (counted over the raw input, before zero-probability pruning).
func (in Instance[P]) MaxZ() int { return uncertain.MaxZ(in.Points) }

// TotalLocations returns N = Σ_i z_i, the instance's total support size
// (counted over the raw input, before zero-probability pruning).
func (in Instance[P]) TotalLocations() int { return uncertain.TotalLocations(in.Points) }

// IsEuclidean reports whether the instance lives in Euclidean space — the
// regime where expected points, the EP rule and the (1+ε) solver exist.
func (in Instance[P]) IsEuclidean() bool {
	_, ok := any(in.Space).(Euclidean)
	return ok
}

// Validate checks the structural invariants: a non-nil space, a nonempty
// valid point set, and (in Euclidean space) agreeing coordinate dimensions.
// Validation is the first stage of compilation, so a successful Validate
// caches the compiled model and later solves skip both.
func (in Instance[P]) Validate() error {
	_, err := in.Compile(context.Background())
	return err
}
