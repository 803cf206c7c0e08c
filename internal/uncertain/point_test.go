package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/metricspace"
)

var euclid = metricspace.Euclidean{}

func mustPoint(t *testing.T, locs []geom.Vec, probs []float64) Point[geom.Vec] {
	t.Helper()
	p, err := New(locs, probs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]geom.Vec{{0}}, []float64{1}); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	bad := []struct {
		name  string
		locs  []geom.Vec
		probs []float64
	}{
		{"empty", nil, nil},
		{"length mismatch", []geom.Vec{{0}}, []float64{0.5, 0.5}},
		{"sum != 1", []geom.Vec{{0}, {1}}, []float64{0.5, 0.6}},
		{"negative prob", []geom.Vec{{0}, {1}}, []float64{-0.5, 1.5}},
		{"NaN prob", []geom.Vec{{0}}, []float64{math.NaN()}},
	}
	for _, tc := range bad {
		if _, err := New(tc.locs, tc.probs); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestNewUniform(t *testing.T) {
	p, err := NewUniform([]geom.Vec{{0}, {1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range p.Probs {
		if pr != 0.25 {
			t.Errorf("uniform prob = %g", pr)
		}
	}
	if _, err := NewUniform[geom.Vec](nil); err == nil {
		t.Error("empty uniform accepted")
	}
}

func TestNewDeterministic(t *testing.T) {
	p := NewDeterministic(geom.Vec{3, 4})
	if p.Z() != 1 || p.Probs[0] != 1 {
		t.Errorf("deterministic point = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	p := Point[geom.Vec]{Locs: []geom.Vec{{0}, {1}}, Probs: []float64{2, 6}}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if p.Probs[0] != 0.25 || p.Probs[1] != 0.75 {
		t.Errorf("normalized = %v", p.Probs)
	}
	zero := Point[geom.Vec]{Locs: []geom.Vec{{0}}, Probs: []float64{0}}
	if err := zero.Normalize(); err == nil {
		t.Error("zero-mass normalize accepted")
	}
	neg := Point[geom.Vec]{Locs: []geom.Vec{{0}}, Probs: []float64{-1}}
	if err := neg.Normalize(); err == nil {
		t.Error("negative-mass normalize accepted")
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := mustPoint(t, []geom.Vec{{0}, {1}, {2}}, []float64{0.5, 0.3, 0.2})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[int(p.Sample(rng)[0])]++
	}
	for j, want := range p.Probs {
		if got := float64(counts[j]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("P(loc %d) = %g, want %g", j, got, want)
		}
	}
}

func TestMode(t *testing.T) {
	p := mustPoint(t, []geom.Vec{{0}, {1}, {2}}, []float64{0.2, 0.5, 0.3})
	if m := p.Mode(); m[0] != 1 {
		t.Errorf("Mode = %v", m)
	}
}

func TestExpectedDist(t *testing.T) {
	p := mustPoint(t, []geom.Vec{{0, 0}, {6, 8}}, []float64{0.5, 0.5})
	got := ExpectedDist[geom.Vec](euclid, p, geom.Vec{0, 0})
	if math.Abs(got-5) > 1e-12 {
		t.Errorf("ExpectedDist = %g, want 5", got)
	}
}

func TestExpectedPoint(t *testing.T) {
	p := mustPoint(t, []geom.Vec{{0, 0}, {4, 8}}, []float64{0.75, 0.25})
	got := ExpectedPoint(p)
	if !got.Equal(geom.Vec{1, 2}, 1e-12) {
		t.Errorf("ExpectedPoint = %v, want (1,2)", got)
	}
}

func TestExpectedPointPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ExpectedPoint(Point[geom.Vec]{})
}

// TestLemma31 verifies Lemma 3.1 of the paper: d(P̄, Q) ≤ E d(P, Q) for every
// uncertain point P and every Q in Euclidean space.
func TestLemma31(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		d := 1 + rng.Intn(5)
		z := 1 + rng.Intn(6)
		locs := make([]geom.Vec, z)
		probs := make([]float64, z)
		var sum float64
		for j := range locs {
			locs[j] = geom.NewVec(d)
			for k := 0; k < d; k++ {
				locs[j][k] = rng.NormFloat64() * 10
			}
			probs[j] = rng.Float64() + 0.01
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		p, err := New(locs, probs)
		if err != nil {
			t.Fatal(err)
		}
		q := geom.NewVec(d)
		for k := 0; k < d; k++ {
			q[k] = rng.NormFloat64() * 10
		}
		lhs := geom.Dist(ExpectedPoint(p), q)
		rhs := ExpectedDist[geom.Vec](euclid, p, q)
		if lhs > rhs+1e-9 {
			t.Fatalf("Lemma 3.1 violated: d(P̄,Q)=%g > E d(P,Q)=%g", lhs, rhs)
		}
	}
}

func TestOneCenterEuclideanMinimizesExpectedDist(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(3)
		z := 2 + rng.Intn(5)
		locs := make([]geom.Vec, z)
		probs := make([]float64, z)
		var sum float64
		for j := range locs {
			locs[j] = geom.NewVec(d)
			for k := 0; k < d; k++ {
				locs[j][k] = rng.NormFloat64() * 5
			}
			probs[j] = rng.Float64() + 0.05
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		p, err := New(locs, probs)
		if err != nil {
			t.Fatal(err)
		}
		c := OneCenterEuclidean(p)
		base := ExpectedDist[geom.Vec](euclid, p, c)
		// P̃ must beat every location and random perturbations.
		for j := range locs {
			if ExpectedDist[geom.Vec](euclid, p, locs[j]) < base-1e-6*(1+base) {
				t.Fatalf("trial %d: location %d beats Weiszfeld output", trial, j)
			}
		}
		for k := 0; k < 10; k++ {
			pert := c.Clone()
			pert[rng.Intn(d)] += (rng.Float64() - 0.5) * 0.1
			if ExpectedDist[geom.Vec](euclid, p, pert) < base-1e-6*(1+base) {
				t.Fatalf("trial %d: perturbation beats Weiszfeld output", trial)
			}
		}
	}
}

func TestOneCenterDiscrete(t *testing.T) {
	// Finite metric: a path 0-1-2 with unit edges; an uncertain point uniform
	// over all three vertices has its unique 1-center at the middle vertex
	// (expected distance 2/3 vs 1 at either endpoint).
	f, err := metricspace.NewFinite([][]float64{
		{0, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewUniform([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c, cost := OneCenterDiscrete[int](f, p, f.Points())
	if c != 1 {
		t.Errorf("1-center = %d, want 1", c)
	}
	if math.Abs(cost-2.0/3) > 1e-12 {
		t.Errorf("cost = %g, want 2/3", cost)
	}
}

func TestOneCenterDiscretePanicsOnEmptyCandidates(t *testing.T) {
	p := NewDeterministic(0)
	f, _ := metricspace.NewFinite([][]float64{{0}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	OneCenterDiscrete[int](f, p, nil)
}

func TestBatchSurrogates(t *testing.T) {
	pts := []Point[geom.Vec]{
		NewDeterministic(geom.Vec{0, 0}),
		NewDeterministic(geom.Vec{2, 2}),
	}
	eps := ExpectedPoints(pts)
	if len(eps) != 2 || !eps[1].Equal(geom.Vec{2, 2}, 0) {
		t.Errorf("ExpectedPoints = %v", eps)
	}
	ocs := OneCentersEuclidean(pts)
	if len(ocs) != 2 || !ocs[0].Equal(geom.Vec{0, 0}, 1e-9) {
		t.Errorf("OneCentersEuclidean = %v", ocs)
	}
	f := metricspace.FromPoints[geom.Vec](euclid, []geom.Vec{{0, 0}, {2, 2}})
	ipts := []Point[int]{NewDeterministic(0), NewDeterministic(1)}
	iocs := OneCentersDiscrete[int](f, ipts, f.Points())
	if iocs[0] != 0 || iocs[1] != 1 {
		t.Errorf("OneCentersDiscrete = %v", iocs)
	}
}
