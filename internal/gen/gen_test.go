package gen

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graphmetric"
	"repro/internal/uncertain"
)

func TestGaussianClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, err := GaussianClusters(rng, 20, 4, 3, 2, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("n = %d", len(pts))
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	if uncertain.MaxZ(pts) != 4 {
		t.Errorf("MaxZ = %d", uncertain.MaxZ(pts))
	}
	for i, p := range pts {
		for _, loc := range p.Locs {
			if loc.Dim() != 3 {
				t.Fatalf("point %d has dim %d", i, loc.Dim())
			}
		}
	}
	if _, err := GaussianClusters(rng, 0, 4, 2, 2, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestBimodalAdversarialSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const sep = 50.0
	pts, err := BimodalAdversarial(rng, 10, 4, 2, sep)
	if err != nil {
		t.Fatal(err)
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	// The expected point must be far from every location for points with
	// roughly balanced masses — check the structural property that each
	// point has two location groups at distance ≈ sep.
	for i, p := range pts {
		var spread float64
		for a := 0; a < p.Z(); a++ {
			for b := a + 1; b < p.Z(); b++ {
				if d := geom.Dist(p.Locs[a], p.Locs[b]); d > spread {
					spread = d
				}
			}
		}
		if spread < sep/2 {
			t.Errorf("point %d: max location spread %g, want ≥ %g", i, spread, sep/2)
		}
	}
	if _, err := BimodalAdversarial(rng, 5, 1, 2, sep); err == nil {
		t.Error("z=1 accepted (cannot be bimodal)")
	}
}

func TestUniformBox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, err := UniformBox(rng, 15, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for _, loc := range p.Locs {
			for _, x := range loc {
				if x < 0 || x > 5 {
					t.Fatalf("location %v outside box", loc)
				}
			}
		}
	}
	if _, err := UniformBox(rng, 5, 3, 2, 0); err == nil {
		t.Error("side=0 accepted")
	}
}

func TestMixture1D(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, err := Mixture1D(rng, 12, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for _, loc := range p.Locs {
			if loc.Dim() != 1 {
				t.Fatalf("1D generator produced dim %d", loc.Dim())
			}
		}
	}
}

func TestOnVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graphmetric.GridGraph(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Metric()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := OnVertices(rng, m, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		seen := map[int]bool{}
		for _, v := range p.Locs {
			if v < 0 || v >= m.N() {
				t.Fatalf("vertex %d out of range", v)
			}
			if seen[v] {
				t.Fatal("duplicate location vertex")
			}
			seen[v] = true
		}
	}
	// z larger than the space clamps.
	pts, err = OnVertices(rng, m, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Z() != m.N() {
		t.Errorf("clamped z = %d, want %d", pts[0].Z(), m.N())
	}
}

func TestOnVerticesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := graphmetric.GridGraph(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Metric()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := OnVerticesLocal(rng, m, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	// Locality: the diameter of each point's location set must be at most
	// that of 4 mutually-nearest grid vertices (≤ 4 hops in a 5x5 grid, and
	// strictly less than the full grid diameter 8).
	for i, p := range pts {
		var spread float64
		for a := 0; a < p.Z(); a++ {
			for b := 0; b < p.Z(); b++ {
				if d := m.Dist(p.Locs[a], p.Locs[b]); d > spread {
					spread = d
				}
			}
		}
		if spread > 4 {
			t.Errorf("point %d: location spread %g, want ≤ 4 (local)", i, spread)
		}
	}
}

func TestHeterogeneousZ(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, err := HeterogeneousZ(rng, 50, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		t.Fatal(err)
	}
	// z must actually vary across points (with overwhelming probability).
	seen := map[int]bool{}
	for _, p := range pts {
		if p.Z() < 1 || p.Z() > 6 {
			t.Fatalf("z = %d outside [1,6]", p.Z())
		}
		seen[p.Z()] = true
	}
	if len(seen) < 3 {
		t.Errorf("only %d distinct z values across 50 points", len(seen))
	}
	if _, err := HeterogeneousZ(rng, 0, 3, 2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := HeterogeneousZ(rng, 3, 0, 2); err == nil {
		t.Error("zMax=0 accepted")
	}
}

func TestRandProbsWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		probs := randProbs(rng, 5)
		var sum float64
		for _, p := range probs {
			if p <= 0 {
				t.Fatal("non-positive probability")
			}
			sum += p
		}
		if diff := sum - 1; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("probs sum to %g", sum)
		}
	}
}

// TestSkewMassesSpansTolerance pins SkewMasses' contract: every skewed
// point still validates, and across many points the masses reach both a
// deficit and a surplus of more than half the tolerance.
func TestSkewMassesSpansTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, err := UniformBox(rng, 200, 3, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	SkewMasses(rng, pts)
	lo, hi := 0.0, 0.0
	for i, p := range pts {
		if err := p.Validate(); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		var sum float64
		for _, pr := range p.Probs {
			sum += pr
		}
		lo, hi = min(lo, sum-1), max(hi, sum-1)
	}
	if lo > -uncertain.ProbSumTol/2 || hi < uncertain.ProbSumTol/2 {
		t.Fatalf("mass deviations span [%g, %g], want beyond ±%g", lo, hi, uncertain.ProbSumTol/2)
	}
}
