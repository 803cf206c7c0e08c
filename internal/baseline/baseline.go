// Package baseline implements the comparison algorithms the paper's headline
// claim is measured against.
//
// Guha & Munagala's 15(1+2ε) algorithm (PODS'09) is an LP-based multi-phase
// procedure with no released implementation; per DESIGN.md §4 we implement
// the representative-point skeleton shared by that line of work plus the
// heuristics practitioners actually deploy:
//
//   - MethodMode: replace each uncertain point by its most probable location;
//   - MethodSample: best of m sampled realizations (each solved greedily,
//     scored by the exact expected cost);
//   - MethodMedianLocation: replace each point by the location minimizing
//     its own expected distance — the "truncated 1-median representative"
//     at the heart of the Guha–Munagala reduction, restricted to the
//     point's own support.
//
// Every method then runs Gonzalez on the representatives and assigns by
// expected distance, so the comparison with the paper's pipelines isolates
// exactly one variable: the choice of certain surrogate.
package baseline

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kcenter"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// Method selects the baseline representative construction.
type Method int

const (
	// MethodMode uses the most probable location.
	MethodMode Method = iota
	// MethodSample solves Gonzalez on sampled realizations and keeps the
	// best center set by exact expected cost.
	MethodSample
	// MethodMedianLocation uses the support location with minimal expected
	// distance to the rest of the distribution (GM-style representative).
	MethodMedianLocation
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodMode:
		return "mode"
	case MethodSample:
		return "sample"
	case MethodMedianLocation:
		return "median-location"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures Solve.
type Options struct {
	// Samples is the number of realizations for MethodSample (default 8).
	Samples int
	// Rng drives MethodSample; required for it, unused otherwise.
	Rng *rand.Rand
	// Start is the Gonzalez start index.
	Start int
}

// Solve runs the chosen baseline and reports the same Result shape as the
// paper's pipelines (assignment rule: expected distance). It compiles the
// point set once and scores every candidate center set on it.
func Solve[P any](space metricspace.Space[P], pts []uncertain.Point[P], k int, method Method, opts Options) (core.Result[P], error) {
	ctx := context.Background()
	c, err := core.Compile(ctx, space, pts, nil)
	if err != nil {
		return core.Result[P]{}, err
	}
	if k <= 0 {
		return core.Result[P]{}, fmt.Errorf("baseline: k = %d", k)
	}
	switch method {
	case MethodMode, MethodMedianLocation:
		reps := make([]P, len(pts))
		for i, p := range pts {
			if method == MethodMode {
				reps[i] = p.Mode()
			} else {
				reps[i], _ = uncertain.OneCenterDiscrete(space, p, p.Locs)
			}
		}
		idx, radius, err := kcenter.Gonzalez(space, reps, k, opts.Start)
		if err != nil {
			return core.Result[P]{}, err
		}
		return finish(ctx, c, kcenter.Select(reps, idx), reps, radius)
	case MethodSample:
		if opts.Rng == nil {
			return core.Result[P]{}, fmt.Errorf("baseline: MethodSample needs Options.Rng")
		}
		samples := opts.Samples
		if samples <= 0 {
			samples = 8
		}
		var best core.Result[P]
		haveBest := false
		for s := 0; s < samples; s++ {
			reps := uncertain.Realize(pts, opts.Rng)
			idx, radius, err := kcenter.Gonzalez(space, reps, k, opts.Start)
			if err != nil {
				return core.Result[P]{}, err
			}
			res, err := finish(ctx, c, kcenter.Select(reps, idx), reps, radius)
			if err != nil {
				return core.Result[P]{}, err
			}
			if !haveBest || res.Ecost < best.Ecost {
				best, haveBest = res, true
			}
		}
		return best, nil
	default:
		return core.Result[P]{}, fmt.Errorf("baseline: unknown method %v", method)
	}
}

// finish assigns the points of c to centers by expected distance and
// reports both exact expected costs.
func finish[P any](ctx context.Context, c *core.Compiled[P], centers, reps []P, radius float64) (core.Result[P], error) {
	assign, err := core.AssignCompiled(ctx, c, centers, core.RuleED, nil, 1)
	if err != nil {
		return core.Result[P]{}, err
	}
	ecost, err := c.EcostAssigned(ctx, centers, assign, 1)
	if err != nil {
		return core.Result[P]{}, err
	}
	un, err := c.EcostUnassigned(ctx, centers, 1)
	if err != nil {
		return core.Result[P]{}, err
	}
	return core.Result[P]{
		Centers:         centers,
		Assign:          assign,
		Ecost:           ecost,
		EcostUnassigned: un,
		Surrogates:      reps,
		CertainRadius:   radius,
		EffectiveEps:    1,
	}, nil
}
