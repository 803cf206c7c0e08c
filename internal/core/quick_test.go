package core

// Property-based tests with testing/quick: structural invariants of the
// cost evaluators and assignment rules under randomized instances encoded
// from quick's primitive generators.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// decodeInstance deterministically expands a seed into a small random
// instance; quick drives the seed.
func decodeInstance(seed int64) ([]uncertain.Point[geom.Vec], []geom.Vec, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	k := 1 + rng.Intn(3)
	pts := make([]uncertain.Point[geom.Vec], n)
	for i := range pts {
		z := 1 + rng.Intn(4)
		locs := make([]geom.Vec, z)
		probs := make([]float64, z)
		var sum float64
		for j := range locs {
			locs[j] = geom.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			probs[j] = rng.Float64() + 0.02
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		pts[i] = uncertain.Point[geom.Vec]{Locs: locs, Probs: probs}
	}
	centers := make([]geom.Vec, k)
	for i := range centers {
		centers[i] = geom.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	return pts, centers, assign
}

// TestQuickEcostNonNegativeAndMonotone: costs are non-negative, and adding a
// center never increases the unassigned cost.
func TestQuickEcostNonNegativeAndMonotone(t *testing.T) {
	f := func(seed int64) bool {
		pts, centers, assign := decodeInstance(seed)
		ctx := context.Background()
		c := mustCompile(t, euclid, pts)
		a, err := c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil || a < 0 {
			return false
		}
		u, err := c.EcostUnassigned(ctx, centers, 1)
		if err != nil || u < 0 || u > a+1e-9 {
			return false
		}
		// Add one more center: unassigned cost cannot increase.
		more := append(append([]geom.Vec(nil), centers...), geom.Vec{0, 0})
		u2, err := c.EcostUnassigned(ctx, more, 1)
		return err == nil && u2 <= u+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEDAssignmentIsBestPerPoint: among all assignments, ED minimizes
// each point's expected distance, hence the max-of-expectations cost.
func TestQuickEDAssignmentIsBestPerPoint(t *testing.T) {
	f := func(seed int64) bool {
		pts, centers, assign := decodeInstance(seed)
		c := mustCompile(t, euclid, pts)
		ed, err := AssignCompiled(context.Background(), c, centers, RuleED, nil, 1)
		if err != nil {
			return false
		}
		edCost, err := c.MaxExpCostAssigned(centers, ed)
		if err != nil {
			return false
		}
		other, err := c.MaxExpCostAssigned(centers, assign)
		if err != nil {
			return false
		}
		return edCost <= other+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickScaleInvariance: scaling every location and center by s > 0
// scales every cost by s.
func TestQuickScaleInvariance(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		s := 0.1 + float64(sRaw)/32 // s in [0.1, 8.07]
		pts, centers, assign := decodeInstance(seed)
		base, err := mustCompile(t, euclid, pts).EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			return false
		}
		scaled := make([]uncertain.Point[geom.Vec], len(pts))
		for i, p := range pts {
			locs := make([]geom.Vec, p.Z())
			for j, l := range p.Locs {
				locs[j] = l.Scale(s)
			}
			scaled[i] = uncertain.Point[geom.Vec]{Locs: locs, Probs: p.Probs}
		}
		sCenters := make([]geom.Vec, len(centers))
		for i, c := range centers {
			sCenters[i] = c.Scale(s)
		}
		got, err := mustCompile(t, euclid, scaled).EcostAssigned(context.Background(), sCenters, assign, 1)
		if err != nil {
			return false
		}
		return math.Abs(got-s*base) <= 1e-9*(1+s*base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickTranslationInvariance: translating everything leaves costs
// unchanged.
func TestQuickTranslationInvariance(t *testing.T) {
	f := func(seed int64, txRaw, tyRaw int16) bool {
		tx, ty := float64(txRaw)/100, float64(tyRaw)/100
		pts, centers, assign := decodeInstance(seed)
		base, err := mustCompile(t, euclid, pts).EcostAssigned(context.Background(), centers, assign, 1)
		if err != nil {
			return false
		}
		shift := geom.Vec{tx, ty}
		moved := make([]uncertain.Point[geom.Vec], len(pts))
		for i, p := range pts {
			locs := make([]geom.Vec, p.Z())
			for j, l := range p.Locs {
				locs[j] = l.Add(shift)
			}
			moved[i] = uncertain.Point[geom.Vec]{Locs: locs, Probs: p.Probs}
		}
		mCenters := make([]geom.Vec, len(centers))
		for i, c := range centers {
			mCenters[i] = c.Add(shift)
		}
		got, err := mustCompile(t, euclid, moved).EcostAssigned(context.Background(), mCenters, assign, 1)
		if err != nil {
			return false
		}
		return math.Abs(got-base) <= 1e-9*(1+base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterministicPointsReduceToCertainKCenter: when every point is
// deterministic, EcostUnassigned equals the certain covering radius.
func TestQuickDeterministicPointsReduceToCertainKCenter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		k := 1 + rng.Intn(3)
		pts := make([]uncertain.Point[geom.Vec], n)
		locs := make([]geom.Vec, n)
		for i := range pts {
			locs[i] = geom.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			pts[i] = uncertain.NewDeterministic(locs[i])
		}
		centers := make([]geom.Vec, k)
		for i := range centers {
			centers[i] = geom.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		u, err := mustCompile(t, euclid, pts).EcostUnassigned(context.Background(), centers, 1)
		if err != nil {
			return false
		}
		var radius float64
		for _, l := range locs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := geom.Dist(l, c); d < best {
					best = d
				}
			}
			if best > radius {
				radius = best
			}
		}
		return math.Abs(u-radius) <= 1e-9*(1+radius)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
