// Package onedim solves the one-dimensional uncertain k-center problem —
// the setting of Wang & Zhang (TCS 2015), which Table 1 row 8 of the paper
// builds on.
//
// Two objectives appear in this literature (DESIGN.md §6):
//
//   - max-of-expectations: max_i E d(P_i, c(P_i)). Each point's expected
//     distance f_i(x) = Σ_j p_ij·|x − P_ij| is convex piecewise linear, so
//     {x : f_i(x) ≤ t} is an interval and the decision problem "k centers
//     with cost ≤ t" is classical interval stabbing. Solve is exact up to a
//     certified bisection gap (Certificate reports it).
//   - the paper's expected-max: E[max_i d(P_i, c(P_i))]. SolveEmax compiles
//     the instance once (core.Compile) and runs alternating minimization on
//     it (ED re-assignment + convex pattern search on the centers, the cost
//     being jointly convex in the centers for a fixed assignment), then
//     certifies the result against the max-of-expectations optimum, which
//     lower-bounds it pointwise.
package onedim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// expDist is the convex piecewise-linear expected-distance function of one
// 1D uncertain point.
type expDist struct {
	xs     []float64 // sorted locations
	probs  []float64 // aligned probabilities
	prefW  []float64 // prefW[i] = Σ probs[:i]
	prefWX []float64 // prefWX[i] = Σ probs[:i]·xs[:i]
	minX   float64   // weighted median (a minimizer)
	minVal float64   // f(minX)
}

func newExpDist(p uncertain.Point[geom.Vec]) (*expDist, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	z := p.Z()
	type pair struct{ x, w float64 }
	ps := make([]pair, z)
	for j := 0; j < z; j++ {
		if p.Locs[j].Dim() != 1 {
			return nil, fmt.Errorf("onedim: location %d has dimension %d, want 1", j, p.Locs[j].Dim())
		}
		ps[j] = pair{p.Locs[j][0], p.Probs[j]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].x < ps[b].x })
	f := &expDist{
		xs:     make([]float64, z),
		probs:  make([]float64, z),
		prefW:  make([]float64, z+1),
		prefWX: make([]float64, z+1),
	}
	for j, pr := range ps {
		f.xs[j] = pr.x
		f.probs[j] = pr.w
		f.prefW[j+1] = f.prefW[j] + pr.w
		f.prefWX[j+1] = f.prefWX[j] + pr.w*pr.x
	}
	// Weighted median: smallest x with cumulative mass ≥ 1/2.
	med := f.xs[z-1]
	for j := 0; j < z; j++ {
		if f.prefW[j+1] >= 0.5 {
			med = f.xs[j]
			break
		}
	}
	f.minX = med
	f.minVal = f.eval(med)
	return f, nil
}

// eval returns f(x) = Σ p_j|x − x_j| in O(log z).
func (f *expDist) eval(x float64) float64 {
	n := len(f.xs)
	// i = count of locations ≤ x.
	i := sort.SearchFloat64s(f.xs, x)
	for i < n && f.xs[i] == x {
		i++
	}
	wLe, wxLe := f.prefW[i], f.prefWX[i]
	wGt, wxGt := f.prefW[n]-wLe, f.prefWX[n]-wxLe
	return (x*wLe - wxLe) + (wxGt - x*wGt)
}

// levelInterval returns the interval {x : f(x) ≤ t}, or ok=false when empty.
func (f *expDist) levelInterval(t float64) (lo, hi float64, ok bool) {
	if t < f.minVal {
		return 0, 0, false
	}
	n := len(f.xs)
	// Left crossing: f decreases with slope 2·prefW[i] − 1 (negative) to the
	// left of the median. Walk segments from the leftmost breakpoint.
	// For x ≤ xs[0]: f(x) = f(xs[0]) + (xs[0] − x) (slope −1 going left).
	if v0 := f.eval(f.xs[0]); v0 <= t {
		lo = f.xs[0] - (t - v0)
	} else {
		// Crossing inside a segment [xs[i], xs[i+1]].
		lo = f.minX
		for i := 0; i+1 < n; i++ {
			va, vb := f.eval(f.xs[i]), f.eval(f.xs[i+1])
			if va >= t && vb <= t {
				if va == vb {
					lo = f.xs[i]
				} else {
					lo = f.xs[i] + (va-t)/(va-vb)*(f.xs[i+1]-f.xs[i])
				}
				break
			}
		}
	}
	if vn := f.eval(f.xs[n-1]); vn <= t {
		hi = f.xs[n-1] + (t - vn)
	} else {
		hi = f.minX
		for i := n - 1; i > 0; i-- {
			va, vb := f.eval(f.xs[i-1]), f.eval(f.xs[i])
			if vb >= t && va <= t {
				if va == vb {
					hi = f.xs[i]
				} else {
					hi = f.xs[i] - (vb-t)/(vb-va)*(f.xs[i]-f.xs[i-1])
				}
				break
			}
		}
	}
	return lo, hi, true
}

// Certificate reports the bisection guarantee of Solve: Cost is feasible,
// and no solution beats Lower.
type Certificate struct {
	Lower float64 // largest cost proven infeasible (0 if Cost is 0)
	Gap   float64 // Cost − Lower
}

// Result is the output of the 1D solvers.
type Result struct {
	Centers []float64
	Cost    float64
	Cert    Certificate
}

// Solve minimizes the max-of-expectations objective
// max_i min_c E d(P_i, c) exactly up to a certified bisection gap of
// tol·scale (tol default 1e-12): binary search on the cost with an interval-
// stabbing feasibility check, O((nz + n log n)·log(1/tol)).
func Solve(pts []uncertain.Point[geom.Vec], k int, tol float64) (Result, error) {
	if err := uncertain.ValidateSet(pts); err != nil {
		return Result{}, err
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("onedim: k = %d", k)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	fs := make([]*expDist, len(pts))
	span := 0.0
	var minAll, maxAll = math.Inf(1), math.Inf(-1)
	for i, p := range pts {
		f, err := newExpDist(p)
		if err != nil {
			return Result{}, fmt.Errorf("point %d: %w", i, err)
		}
		fs[i] = f
		if f.xs[0] < minAll {
			minAll = f.xs[0]
		}
		if f.xs[len(f.xs)-1] > maxAll {
			maxAll = f.xs[len(f.xs)-1]
		}
	}
	span = maxAll - minAll

	// Lower bound: every point must pay at least its own minimum.
	lo := 0.0
	for _, f := range fs {
		if f.minVal > lo {
			lo = f.minVal
		}
	}
	if centers, ok := stab(fs, k, lo); ok {
		return Result{Centers: centers, Cost: lo, Cert: Certificate{Lower: lo, Gap: 0}}, nil
	}
	// Upper bound: one center at the global midpoint.
	hi := lo
	mid := (minAll + maxAll) / 2
	for _, f := range fs {
		if v := f.eval(mid); v > hi {
			hi = v
		}
	}
	for hi-lo > tol*(span+hi) {
		m := (lo + hi) / 2
		if _, ok := stab(fs, k, m); ok {
			hi = m
		} else {
			lo = m
		}
	}
	centers, ok := stab(fs, k, hi)
	if !ok {
		return Result{}, fmt.Errorf("onedim: internal error, certified cost infeasible")
	}
	return Result{Centers: centers, Cost: hi, Cert: Certificate{Lower: lo, Gap: hi - lo}}, nil
}

// stab decides whether k centers achieve max-of-expectations ≤ t, returning
// greedy stabbing positions (right endpoints of expiring intervals).
func stab(fs []*expDist, k int, t float64) ([]float64, bool) {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(fs))
	for _, f := range fs {
		lo, hi, ok := f.levelInterval(t)
		if !ok {
			return nil, false
		}
		ivs = append(ivs, iv{lo, hi})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].hi < ivs[b].hi })
	var centers []float64
	cur := math.Inf(-1)
	for _, v := range ivs {
		if v.lo <= cur {
			continue // already stabbed
		}
		if len(centers) == k {
			return nil, false
		}
		cur = v.hi
		centers = append(centers, cur)
	}
	if len(centers) == 0 {
		centers = append(centers, ivs[0].hi)
	}
	return centers, true
}

// SolveEmax minimizes the paper's E[max] objective for 1D instances with the
// ED assignment: alternating minimization between ED re-assignment and
// pattern search on the (jointly convex, for fixed assignment) center
// positions, seeded by the exact max-of-expectations solution. The returned
// Certificate's Lower is the max-of-expectations optimum, a true lower bound
// on the E[max] optimum (maxE ≤ Emax pointwise, minimized over the same
// space).
func SolveEmax(pts []uncertain.Point[geom.Vec], k int, tol float64) (Result, error) {
	seed, err := Solve(pts, k, tol)
	if err != nil {
		return Result{}, err
	}
	if tol <= 0 {
		tol = 1e-9
	}
	ctx := context.Background()
	c, err := core.Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
	if err != nil {
		return Result{}, err
	}
	centers := toVecs(seed.Centers)
	for len(centers) < k {
		centers = append(centers, centers[len(centers)-1].Clone())
	}

	all := uncertain.AllLocations(pts)
	bbox := geom.BoundingBox(all)
	span := bbox.Diameter()
	if span == 0 {
		cost, err := c.EcostUnassigned(ctx, centers, 1)
		if err != nil {
			return Result{}, err
		}
		return Result{Centers: fromVecs(centers), Cost: cost,
			Cert: Certificate{Lower: seed.Cost, Gap: cost - seed.Cost}}, nil
	}

	cost := math.Inf(1)
	for round := 0; round < 60; round++ {
		assign, err := core.AssignCompiled(ctx, c, centers, core.RuleED, nil, 1)
		if err != nil {
			return Result{}, err
		}
		newCenters, newCost, err := optimizeCenters1D(ctx, c, centers, assign, span, tol)
		if err != nil {
			return Result{}, err
		}
		if newCost >= cost-tol*(1+cost) {
			break
		}
		centers, cost = newCenters, newCost
	}
	if math.IsInf(cost, 1) {
		assign, err := core.AssignCompiled(ctx, c, centers, core.RuleED, nil, 1)
		if err != nil {
			return Result{}, err
		}
		cost, err = c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil {
			return Result{}, err
		}
	}
	return Result{
		Centers: fromVecs(centers),
		Cost:    cost,
		Cert:    Certificate{Lower: seed.Cost, Gap: cost - seed.Cost},
	}, nil
}

// optimizeCenters1D pattern-searches the k center coordinates jointly for a
// fixed assignment (the objective is convex in the centers), evaluating
// every move on the compiled instance.
func optimizeCenters1D(ctx context.Context, c *core.Compiled[geom.Vec], centers []geom.Vec, assign []int, span, tol float64) ([]geom.Vec, float64, error) {
	cur := make([]geom.Vec, len(centers))
	for i, ctr := range centers {
		cur[i] = ctr.Clone()
	}
	curCost, err := c.EcostAssigned(ctx, cur, assign, 1)
	if err != nil {
		return nil, 0, err
	}
	step := span / 4
	for step > tol*span {
		improved := false
		for ci := range cur {
			for _, s := range []float64{step, -step} {
				cand := make([]geom.Vec, len(cur))
				for i, ctr := range cur {
					cand[i] = ctr.Clone()
				}
				cand[ci][0] += s
				cost, err := c.EcostAssigned(ctx, cand, assign, 1)
				if err != nil {
					return nil, 0, err
				}
				if cost < curCost-1e-15*(1+curCost) {
					cur, curCost = cand, cost
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return cur, curCost, nil
}

func toVecs(xs []float64) []geom.Vec {
	out := make([]geom.Vec, len(xs))
	for i, x := range xs {
		out[i] = geom.Vec{x}
	}
	return out
}

func fromVecs(vs []geom.Vec) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v[0]
	}
	return out
}
