package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/emax"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/par"
	"repro/internal/uncertain"
	"repro/obs"
)

// memo is a mutex-guarded lazy cell: the first successful build is cached
// forever; a failed build (context cancellation mid-construction) leaves the
// cell empty so a later caller retries instead of caching the error. Holding
// the mutex across the build serializes concurrent first computations, which
// is exactly the "compute once, share" contract a Compiled instance makes.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// get returns the cached value, invoking build under the mutex on first
// use. A successful build bumps builds (the instance's cache-build counter
// behind Compiled.CacheBuilds) while the mutex is still held, so the
// counter increment is atomic with build completion: an observer that
// snapshots the counter and then reads a warm value can never see the bump
// land afterwards.
func (m *memo[T]) get(builds *atomic.Uint64, build func() (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.val, nil
	}
	v, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	m.val, m.done = v, true
	builds.Add(1)
	return v, nil
}

// peek returns the cached value without building it: ok reports whether a
// build has completed. The cache-accounting paths (CacheBytes) use it to
// measure without materializing.
func (m *memo[T]) peek() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.val, m.done
}

// drop empties the cell: the next get rebuilds from scratch. Callers holding
// a previously returned value keep a valid (immutable) reference — drop
// releases the cell's reference only, so in-flight consumers are unaffected
// and the memory is reclaimed when the last holder lets go.
func (m *memo[T]) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero T
	m.val, m.done = zero, false
}

// Compiled is the immutable per-instance core every pipeline consumes: the
// uncertain-point model validated, flattened and cached once, shared by
// every later solve.
//
// Compilation performs, exactly once per instance lifetime:
//
//   - validation (uncertain.ValidateSet, plus CommonDim in Euclidean space —
//     the only ValidateSet call site in this package);
//   - pruning of zero-probability atoms, so every downstream consumer sees
//     the same support (the swap evaluator and the from-scratch paths used
//     to disagree on this);
//   - the flat structure-of-arrays atom layout — one arena of N = Σ_i z_i
//     locations, probabilities and point indices with per-point offsets —
//     which internal/emax consumes directly through the emax.Layout over it
//     (Arena.ExpectedMaxFlat and Arena.ExpectedMaxMinFlat);
//   - N, max z_i and (in Euclidean space) the common coordinate dimension.
//
// On top of the flat model a Compiled memoizes the derived state repeated
// solves share: both surrogate kinds (expected points P̄ and 1-centers P̃,
// continuous and candidate-restricted), each built lazily on first use
// behind a mutex and immutable afterwards, so a second solve of the same
// instance performs zero metric calls for surrogate construction. Compile
// also builds the emax.Layout with G∞ and log G∞ (O(n)), which every exact
// E-cost and swap evaluator shares; no distance table is ever built.
//
// In Euclidean space the arena owns its coordinates: Compile copies the
// pruned atoms' coordinates once into one row-major column xy (atom f at
// xy[f·d:(f+1)·d]) and re-slices every location into it, so each
// coordinate is stored once and mutating the input points afterwards does
// not reach the instance. The swap evaluator and the exact E-costs
// compute atom distances from xy with internal/geom's flat loops, which
// repeat geom.Dist's arithmetic and so return bit-identical values; every
// other space calls Space.Dist per atom.
//
// A Compiled is goroutine-safe: all mutable state is behind the memo cells,
// and everything else is written once at compile time. Callers must not
// mutate the slices it returns. Memory: the flat arena is
// N·(sizeof(P) + 8 + 4) bytes plus 4·(n+1) offset bytes, plus the 8·d·N
// coordinate column in Euclidean space and the layout's 32·n bytes.
type Compiled[P any] struct {
	space metricspace.Space[P]
	pts   []uncertain.Point[P] // pruned views into the flat arena
	cands []P                  // explicit candidate set (may be empty)

	locs    []P       // atom f -> location (the arena)
	xy      []float64 // Euclidean only: atom f's coordinates at xy[f·dim:(f+1)·dim], which locs[f] aliases; nil elsewhere
	probs   []float64 // atom f -> positive probability mass
	offsets []int32   // point i owns atoms offsets[i]:offsets[i+1]; len n+1
	ptIdx   []int32   // atom f -> owning point index (inverse of offsets)
	allLocs []P       // every input location incl. p=0 ones; aliases locs when nothing was pruned

	lay         *emax.Layout // the atoms' masses and owners and log G∞, for every exact E-cost
	maxZ        int
	dim         int // common coordinate dimension (Euclidean only, else 0)
	isEuclidean bool

	surrEP     memo[[]P]        // expected points P̄
	surrOCFree memo[[]P]        // continuous 1-centers P̃ (Euclidean, no candidates)
	surrOCCand memo[[]P]        // 1-centers P̃ over CandidatesOrLocations()
	ciCache    memo[*CandIndex] // maxmin pivots at DefaultIndexPivots (benchmark only)

	builds atomic.Uint64 // completed cache builds (see CacheBuilds)
}

// CacheBuilds returns the number of memoized-cache builds (surrogate
// slices, the CandIndex pivots) completed over this instance's lifetime —
// a monotonic counter that never decreases, not even on DropCaches, and
// whose increments are atomic with build completion (bumped under the
// memo mutex). Serving layers snapshot it around a request to classify
// warm-cache hits (unchanged counter) versus builds, immune to the races
// a byte-delta comparison has with concurrent eviction.
func (c *Compiled[P]) CacheBuilds() uint64 { return c.builds.Load() }

// Compile validates, prunes and flattens an uncertain point set into the
// immutable per-instance representation every pipeline consumes. candidates
// is the instance's explicit center/surrogate search space and may be nil
// (Euclidean space, or "default to all locations").
//
// Validation is strict on the ORIGINAL set: probabilities must be
// non-negative, finite and sum to 1 per point; in Euclidean space every
// location — including zero-probability ones — and every candidate must
// share one coordinate dimension, and over a *metricspace.Finite every
// location and candidate must be a vertex of the space. After validation,
// zero-probability atoms are pruned; they contribute to no expectation,
// distribution or E-cost, and pruning them once here is what makes the
// cached and from-scratch evaluators agree on the support they enumerate.
func Compile[P any](ctx context.Context, space metricspace.Space[P], pts []uncertain.Point[P], candidates []P) (*Compiled[P], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	tracer := obs.FromContext(ctx)
	vsp := obs.StartSpan(tracer, "compile.validate")
	if err := uncertain.ValidateSet(pts); err != nil {
		return nil, err
	}
	_, isEu := any(space).(metricspace.Euclidean)
	dim := 0
	if isEu {
		eu, ok := any(pts).([]uncertain.Point[geom.Vec])
		if !ok {
			return nil, fmt.Errorf("core: Euclidean space over non-vector locations")
		}
		d, err := uncertain.CommonDim(eu)
		if err != nil {
			return nil, err
		}
		for j, cd := range any(candidates).([]geom.Vec) {
			if len(cd) != d {
				return nil, fmt.Errorf("core: candidate %d has dimension %d, want %d", j, len(cd), d)
			}
		}
		dim = d
	}
	if fin, ok := any(space).(*metricspace.Finite); ok {
		if err := checkVertices(fin, any(pts).([]uncertain.Point[int]), any(candidates).([]int)); err != nil {
			return nil, err
		}
	}
	vsp.Int("points", len(pts))
	vsp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fsp := obs.StartSpan(tracer, "compile.flatten")
	n := 0
	for _, p := range pts {
		for _, pr := range p.Probs {
			if pr > 0 {
				n++
			}
		}
	}
	c := &Compiled[P]{
		space:       space,
		cands:       candidates,
		pts:         make([]uncertain.Point[P], len(pts)),
		locs:        make([]P, 0, n),
		probs:       make([]float64, 0, n),
		offsets:     make([]int32, 1, len(pts)+1),
		ptIdx:       make([]int32, 0, n),
		dim:         dim,
		isEuclidean: isEu,
	}
	for i, p := range pts {
		start := len(c.locs)
		for j, pr := range p.Probs {
			if pr > 0 {
				c.locs = append(c.locs, p.Locs[j])
				c.probs = append(c.probs, pr)
				c.ptIdx = append(c.ptIdx, int32(i))
			}
		}
		end := len(c.locs)
		if z := end - start; z > c.maxZ {
			c.maxZ = z
		}
		c.offsets = append(c.offsets, int32(end))
		c.pts[i] = uncertain.Point[P]{
			Locs:  c.locs[start:end:end],
			Probs: c.probs[start:end:end],
		}
	}
	if isEu {
		// Copy the coordinates into one column and re-slice each location
		// into it; the point views above alias locs, so they follow.
		vs := any(c.locs).([]geom.Vec)
		c.xy = make([]float64, len(vs)*dim)
		for f, v := range vs {
			row := c.xy[f*dim : (f+1)*dim : (f+1)*dim]
			copy(row, v)
			vs[f] = row
		}
	}
	// The default candidate set keeps EVERY input location, including
	// zero-probability ones: pruning affects probability mass (no E-cost
	// ever changes), but a p = 0 location is still a legal — and possibly
	// best — center site, and the pre-compile pipelines searched it. When
	// nothing was pruned this aliases the arena at no extra memory.
	c.allLocs = c.locs
	if len(c.locs) < uncertain.TotalLocations(pts) {
		c.allLocs = uncertain.AllLocations(pts)
	}
	c.lay = emax.NewLayout(c.probs, c.offsets, c.ptIdx)
	fsp.Int("atoms", len(c.probs))
	fsp.Int("pruned", uncertain.TotalLocations(pts)-len(c.probs))
	fsp.Int("max_z", c.maxZ)
	fsp.End()
	return c, nil
}

// checkVertices reports the first location or candidate that is not a
// vertex of the finite space.
func checkVertices(fin *metricspace.Finite, pts []uncertain.Point[int], cands []int) error {
	n := fin.N()
	for i, p := range pts {
		for j, v := range p.Locs {
			if v < 0 || v >= n {
				return fmt.Errorf("core: point %d location %d is vertex %d, outside the %d-vertex space", i, j, v, n)
			}
		}
	}
	for j, v := range cands {
		if v < 0 || v >= n {
			return fmt.Errorf("core: candidate %d is vertex %d, outside the %d-vertex space", j, v, n)
		}
	}
	return nil
}

// Space returns the metric space the instance lives in.
func (c *Compiled[P]) Space() metricspace.Space[P] { return c.space }

// Points returns the validated point set with zero-probability atoms pruned.
// The slice and the points' backing arrays are shared with the compiled
// arena; callers must not mutate them.
func (c *Compiled[P]) Points() []uncertain.Point[P] { return c.pts }

// NumPoints returns n, the number of uncertain points.
func (c *Compiled[P]) NumPoints() int { return len(c.pts) }

// NumAtoms returns N = Σ_i |{j : p_ij > 0}|, the pruned total support size —
// the length of the flat arena.
func (c *Compiled[P]) NumAtoms() int { return len(c.probs) }

// MaxZ returns max_i z_i over the pruned supports.
func (c *Compiled[P]) MaxZ() int { return c.maxZ }

// Dim returns the common coordinate dimension in Euclidean space, 0
// elsewhere.
func (c *Compiled[P]) Dim() int { return c.dim }

// IsEuclidean reports whether the instance lives in Euclidean space.
func (c *Compiled[P]) IsEuclidean() bool { return c.isEuclidean }

// Candidates returns the instance's explicit candidate set (nil when none
// was given). Callers must not mutate it.
func (c *Compiled[P]) Candidates() []P { return c.cands }

// CandidatesOrLocations returns the candidate set discrete stages should
// use: the explicit set when one was given, otherwise all input locations
// (including zero-probability ones — a p = 0 location is still a legal
// center site) — the natural discrete search space. Callers must not
// mutate the result.
func (c *Compiled[P]) CandidatesOrLocations() []P {
	if len(c.cands) > 0 {
		return c.cands
	}
	return c.allLocs
}

// PipelineCandidates returns the candidate set the SolveCompiled pipeline's
// discrete stages draw from: the explicit set in Euclidean space (may be
// nil — continuous constructions exist there), the explicit-or-all-
// locations default elsewhere. SolveCompiled and the public Assign use
// this single definition so assignment never searches a different
// surrogate space than the solve that produced the centers.
func (c *Compiled[P]) PipelineCandidates() []P {
	if c.isEuclidean {
		return c.cands
	}
	return c.CandidatesOrLocations()
}

// FlatAtoms exposes the structure-of-arrays atom layout: locs[f] occurs with
// probability probs[f] and belongs to point ptIdx[f]; point i owns atoms
// offsets[i]:offsets[i+1]. Callers must not mutate the slices.
func (c *Compiled[P]) FlatAtoms() (locs []P, probs []float64, offsets, ptIdx []int32) {
	return c.locs, c.probs, c.offsets, c.ptIdx
}

// Coords returns a Euclidean instance's row-major coordinate column, atom f
// at [f·Dim():(f+1)·Dim()], which every location aliases; nil in any other
// space. Callers must not mutate it.
func (c *Compiled[P]) Coords() []float64 { return c.xy }

// distsTo sets dst[j] = d(locs[lo+j], q) for every j in range dst.
func (c *Compiled[P]) distsTo(dst []float64, lo int, q P) {
	c.distsToVec(dst, lo, q, c.vec(q))
}

// vec returns q's coordinates in Euclidean space and nil elsewhere: the
// qv argument of distsToVec and minDistTo, which a caller reusing q
// asserts once.
func (c *Compiled[P]) vec(q P) geom.Vec {
	if c.xy == nil {
		return nil
	}
	return any(q).(geom.Vec)
}

// distsToVec is distsTo given qv = c.vec(q). It and minDistTo hold the
// per-space choice of atom distance loop: geom's flat kernels over the
// coordinate column in Euclidean space, one Space.Dist call per atom
// elsewhere. Both give the same bits.
func (c *Compiled[P]) distsToVec(dst []float64, lo int, q P, qv geom.Vec) {
	if c.xy != nil {
		geom.DistsFlat(dst, c.xy[lo*c.dim:], c.dim, qv)
		return
	}
	for j, loc := range c.locs[lo : lo+len(dst)] {
		dst[j] = c.space.Dist(loc, q)
	}
}

// minDistTo returns the least d(locs[f], q) over atoms f in [lo, hi)
// (+Inf for an empty range), or a value at most floor once one atom is
// within floor of q, given qv = c.vec(q). In Euclidean space it is the
// least squared distance and one Sqrt (geom.MinDistFlat), which is the
// least distance bit for bit.
func (c *Compiled[P]) minDistTo(lo, hi int, q P, qv geom.Vec, floor float64) float64 {
	if c.xy != nil {
		return geom.MinDistFlat(c.xy[lo*c.dim:hi*c.dim], c.dim, qv, floor)
	}
	best := math.Inf(1)
	for _, loc := range c.locs[lo:hi] {
		if v := c.space.Dist(loc, q); v < best {
			if best = v; v <= floor {
				break
			}
		}
	}
	return best
}

// minDistsTo sets dst[j] = min over qs of d(locs[lo+j], q), dispatching
// like distsToVec.
func (c *Compiled[P]) minDistsTo(dst []float64, lo int, qs []P) {
	if c.xy != nil {
		geom.MinDistsFlat(dst, c.xy[lo*c.dim:], c.dim, any(qs).([]geom.Vec))
		return
	}
	minDists(c.space, dst, c.locs[lo:lo+len(dst)], qs)
}

// minDists sets dst[j] = min over qs of space.Dist(locs[j], q), +Inf when
// qs is empty: the Space.Dist loop behind minDistsTo and the from-scratch
// oracle.
func minDists[P any](space metricspace.Space[P], dst []float64, locs, qs []P) {
	for j, loc := range locs {
		best := math.Inf(1)
		for _, q := range qs {
			if d := space.Dist(loc, q); d < best {
				best = d
			}
		}
		dst[j] = best
	}
}

// euclideanPts returns the pruned points at their concrete Euclidean type;
// callers only invoke it when IsEuclidean() is true, which Compile proved.
func (c *Compiled[P]) euclideanPts() []uncertain.Point[geom.Vec] {
	return any(c.pts).([]uncertain.Point[geom.Vec])
}

// sameSlice reports whether two slices are the identical view (same base
// pointer and length) — the cheap identity check the surrogate memos use to
// recognize the instance's own candidate set.
func sameSlice[P any](a, b []P) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Surrogates returns the certain stand-in for every point under the given
// construction, memoized per instance: the first call builds the slice on
// `workers` goroutines (bit-identical for any worker count), later calls
// return the cached slice with zero metric calls. candidates restricts the
// 1-center search (nil selects the continuous Weiszfeld construction in
// Euclidean space); a candidate set other than the instance's own
// (CandidatesOrLocations or nil) is computed fresh and not cached. Callers
// must not mutate the result.
func (c *Compiled[P]) Surrogates(ctx context.Context, s Surrogate, candidates []P, workers int) ([]P, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	switch s {
	case SurrogateExpectedPoint:
		if !c.isEuclidean {
			return nil, fmt.Errorf("core: the expected-point surrogate requires a Euclidean space")
		}
		return c.surrEP.get(&c.builds, func() ([]P, error) {
			sp := c.buildSpan(ctx, "surrogate.build.ep")
			eu := c.euclideanPts()
			out, err := par.Map(ctx, make([]geom.Vec, len(eu)), workers, func(i int) geom.Vec {
				return uncertain.ExpectedPointUnchecked(eu[i])
			})
			if err != nil {
				return nil, err
			}
			sp.End()
			return vecsAsP[P](out), nil
		})
	case SurrogateOneCenter:
		if len(candidates) == 0 {
			if !c.isEuclidean {
				return nil, fmt.Errorf("core: the discrete 1-center surrogate needs a candidate set")
			}
			return c.surrOCFree.get(&c.builds, func() ([]P, error) {
				sp := c.buildSpan(ctx, "surrogate.build.oc_free")
				eu := c.euclideanPts()
				out, err := par.Map(ctx, make([]geom.Vec, len(eu)), workers, func(i int) geom.Vec {
					return uncertain.OneCenterEuclideanUnchecked(eu[i])
				})
				if err != nil {
					return nil, err
				}
				sp.End()
				return vecsAsP[P](out), nil
			})
		}
		build := func() ([]P, error) {
			return par.Map(ctx, make([]P, len(c.pts)), workers, func(i int) P {
				s, _ := uncertain.OneCenterDiscrete(c.space, c.pts[i], candidates)
				return s
			})
		}
		if sameSlice(candidates, c.CandidatesOrLocations()) {
			return c.surrOCCand.get(&c.builds, func() ([]P, error) {
				sp := c.buildSpan(ctx, "surrogate.build.oc_cand")
				out, err := build()
				if err != nil {
					return nil, err
				}
				sp.End()
				return out, nil
			})
		}
		return build()
	default:
		return nil, fmt.Errorf("core: unknown surrogate %v", s)
	}
}

// Evaluator returns an incremental swap evaluator over
// CandidatesOrLocations(). It precomputes nothing: candidate distances are
// computed on demand and the layout was built at compile time, so ctx and
// workers are unused and every call returns a fresh O(1) value.
func (c *Compiled[P]) Evaluator(ctx context.Context, workers int) (*SwapEvaluator[P], error) {
	return newSwapEvaluator(c)
}

// CandIndex returns P pivots seeded maxmin over CandidatesOrLocations().
// It has no solver caller: the swap scan prunes without an index. The
// benchmark's replay still times this build as its core.candindex_build
// layer, and the method goes once a benchmark change drops that layer.
// pivots <= 0 selects DefaultIndexPivots, the memoized build shared by
// every later call; any other pivot count is computed fresh without
// touching the cache.
func (c *Compiled[P]) CandIndex(ctx context.Context, pivots, workers int) (*CandIndex, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	if pivots <= 0 {
		pivots = DefaultIndexPivots
	}
	build := func() (*CandIndex, error) {
		sp := obs.StartSpan(obs.FromContext(ctx), "candindex.build")
		cands := c.CandidatesOrLocations()
		ix, err := newCandIndex(ctx, c.space, cands, pivots, workers)
		if err != nil {
			return nil, err
		}
		sp.Int("pivots", len(ix.Pivots()))
		sp.Int("candidates", len(cands))
		sp.Int64("bytes", ix.Bytes())
		sp.End()
		return ix, nil
	}
	if pivots == DefaultIndexPivots {
		return c.ciCache.get(&c.builds, build)
	}
	return build()
}

// buildSpan starts the span a memoized surrogate build reports through:
// the shared name prefix ("surrogate.build.*") is what serving-layer
// tracers key their cache-build histograms on, and the bytes attribute is
// the build's CacheBytes contribution (§4a formula).
func (c *Compiled[P]) buildSpan(ctx context.Context, name string) obs.Span {
	sp := obs.StartSpan(obs.FromContext(ctx), name)
	sp.Int("points", len(c.pts))
	sp.Int64("bytes", int64(len(c.pts))*c.surrogateElemBytes())
	return sp
}

// surrogateElemBytes is the per-element cost of one memoized surrogate
// entry, following the DESIGN.md §4a memory formula: sizeof(P) per element,
// plus the 8·dim coordinate payload behind the slice header in Euclidean
// space (each surrogate vector is its own allocation, while the arena's
// locations share the coordinate column xy, which is not a cache).
func (c *Compiled[P]) surrogateElemBytes() int64 {
	var zero P
	b := int64(unsafe.Sizeof(zero))
	if c.isEuclidean {
		b += int64(8 * c.dim)
	}
	return b
}

// CacheBytes returns the exact byte cost of the memoized derived state
// currently held by this instance — the DESIGN.md §4a formula, applied to
// whichever caches have actually been built:
//
//   - each built surrogate slice (P̄, continuous P̃, candidate P̃) costs
//     n·sizeof(P), plus the 8·d coordinate payload per element in Euclidean
//     space;
//   - the CandIndex pivots cost 4·P bytes, metered so eviction accounting
//     stays exact.
//
// The compiled arena itself (flat atoms, offsets, pruned point views, the
// layout) is NOT counted: it is the instance's identity, not a cache, and DropCaches
// keeps it. Serving layers use CacheBytes as the eviction weight of a
// byte-budget LRU over registered instances.
func (c *Compiled[P]) CacheBytes() int64 {
	var total int64
	eb := c.surrogateElemBytes()
	n := int64(len(c.pts))
	if _, ok := c.surrEP.peek(); ok {
		total += n * eb
	}
	if _, ok := c.surrOCFree.peek(); ok {
		total += n * eb
	}
	if _, ok := c.surrOCCand.peek(); ok {
		total += n * eb
	}
	if ix, ok := c.ciCache.peek(); ok && ix != nil {
		total += ix.Bytes()
	}
	return total
}

// DropCaches releases every memoized cache — both surrogate kinds and the
// CandIndex pivots — returning CacheBytes to zero while keeping the
// compiled arena (validation, pruning and flattening are never redone).
// The next solve that needs a dropped cache rebuilds it lazily and, because
// every build is deterministic, produces bit-identical results to a solve
// against the never-dropped caches. In-flight consumers holding a
// previously returned surrogate slice keep valid immutable references; the
// memory is reclaimed when the last holder lets go. Safe to call
// concurrently with solves.
func (c *Compiled[P]) DropCaches() {
	c.surrEP.drop()
	c.surrOCFree.drop()
	c.surrOCCand.drop()
	c.ciCache.drop()
}

// SnapToCandidates returns, for each center, the index of its nearest
// candidate in CandidatesOrLocations() (ties broken by lowest index).
func (c *Compiled[P]) SnapToCandidates(centers []P) []int {
	cands := c.CandidatesOrLocations()
	out := make([]int, len(centers))
	for i, ctr := range centers {
		best, bestD := 0, math.Inf(1)
		for j, cand := range cands {
			if d := c.space.Dist(ctr, cand); d < bestD {
				best, bestD = j, d
			}
		}
		out[i] = best
	}
	return out
}

// EcostAssigned returns the exact assigned expected cost
// Σ_R prob(R)·max_i d(P̂_i, centers[assign[i]]) of the compiled instance.
// For fixed centers and assignment the per-point distances are independent
// discrete random variables, so no realization is enumerated: the flat
// per-atom distances are filled on `workers` goroutines (disjoint
// per-point ranges through distsTo, bit-identical to sequential), then one
// threshold-split sweep (emax.Arena.ExpectedMaxFlat). No re-validation: the
// instance was validated at compile time. The distance buffer and the sweep
// arena come from a pool, so repeated calls reuse them instead of
// allocating O(N).
func (c *Compiled[P]) EcostAssigned(ctx context.Context, centers []P, assign []int, workers int) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateAssignment(c.pts, centers, assign); err != nil {
		return 0, err
	}
	s := getEcostScratch(len(c.locs))
	defer ecostPool.Put(s)
	vals := s.vals
	if err := par.For(ctx, len(c.pts), workers, func(i int) {
		lo, hi := c.offsets[i], c.offsets[i+1]
		c.distsTo(vals[lo:hi], int(lo), centers[assign[i]])
	}); err != nil {
		return 0, err
	}
	return s.arena.ExpectedMaxFlat(c.lay, vals), nil
}

// EcostUnassigned returns the exact unassigned expected cost
// Σ_R prob(R)·max_i min_j d(P̂_i, c_j) of the compiled instance. Each
// realization of each point independently snaps to its nearest center, so
// the per-point min-distances are again independent random variables; the
// per-atom minima are filled per point through minDistsTo. See
// EcostAssigned for the parallelism and validation contract.
func (c *Compiled[P]) EcostUnassigned(ctx context.Context, centers []P, workers int) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(centers) == 0 {
		return 0, fmt.Errorf("core: no centers")
	}
	s := getEcostScratch(len(c.locs))
	defer ecostPool.Put(s)
	vals := s.vals
	if err := par.For(ctx, len(c.pts), workers, func(i int) {
		lo, hi := c.offsets[i], c.offsets[i+1]
		c.minDistsTo(vals[lo:hi], int(lo), centers)
	}); err != nil {
		return 0, err
	}
	return s.arena.ExpectedMaxFlat(c.lay, vals), nil
}

// ecostScratch is the reusable state of one exact E-cost evaluation: the
// flat per-atom distance values and the sweep arena.
type ecostScratch struct {
	vals  []float64
	arena emax.Arena
}

// ecostPool recycles the scratch of EcostAssigned and EcostUnassigned
// across calls and instances.
var ecostPool = sync.Pool{New: func() any { return new(ecostScratch) }}

// getEcostScratch takes a pooled scratch with len(vals) == n; the caller
// returns it with ecostPool.Put.
func getEcostScratch(n int) *ecostScratch {
	s := ecostPool.Get().(*ecostScratch)
	s.vals = resize(s.vals, n)
	return s
}

// flatScratch is the per-worker reusable state of a from-scratch unassigned
// evaluation: a center buffer plus the E-cost scratch. One scratch per
// worker; see newFlatScratches.
type flatScratch[P any] struct {
	centers []P
	ecostScratch
}

// newFlatScratches allocates one from-scratch evaluation scratch per worker
// slot, each sized for k centers and the instance's atom count, for the
// from-scratch sweep.
func (c *Compiled[P]) newFlatScratches(k, workers int) []*flatScratch[P] {
	scr := make([]*flatScratch[P], workers)
	for w := range scr {
		scr[w] = &flatScratch[P]{centers: make([]P, k), ecostScratch: ecostScratch{vals: make([]float64, c.NumAtoms())}}
	}
	return scr
}

// ecostUnassignedFlat is the scratch-reusing sequential unassigned E-cost —
// the inner-loop evaluator of the from-scratch sweep and the tests'
// from-scratch descent.
// vals must have length NumAtoms(); vals and arena are overwritten and may
// be reused across calls. Value-identical to EcostUnassigned, but it keeps
// one Space.Dist call per atom and center in every space: it is the oracle
// the trajectory-equality tests hold the flat kernels to.
func (c *Compiled[P]) ecostUnassignedFlat(centers []P, vals []float64, a *emax.Arena) float64 {
	minDists(c.space, vals, c.locs, centers)
	return a.ExpectedMaxFlat(c.lay, vals)
}
