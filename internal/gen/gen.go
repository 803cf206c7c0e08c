// Package gen generates synthetic uncertain-point workloads.
//
// The paper is a theory paper with no datasets, so the experiments need
// input families that exercise the regimes its theorems distinguish
// (DESIGN.md §4 documents this substitution):
//
//   - GaussianClusters: concentrated distributions around cluster centers —
//     the benign regime where surrogates are nearly lossless;
//   - BimodalAdversarial: each point splits its mass between two far-apart
//     modes, making the expected point land in empty space — the regime that
//     stresses the Euclidean surrogate bounds and separates EP from ED;
//   - UniformBox: unstructured noise;
//   - Mixture1D: one-dimensional mixtures for the R^1 experiments;
//   - OnVertices: uncertain points over the vertices of a finite metric
//     space (graph metrics) for the general-metric experiments.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// randProbs draws a random probability vector of length z with entries
// bounded away from zero (so enumeration oracles stay well conditioned).
func randProbs(rng *rand.Rand, z int) []float64 {
	probs := make([]float64, z)
	var sum float64
	for j := range probs {
		probs[j] = 0.05 + rng.Float64()
		sum += probs[j]
	}
	for j := range probs {
		probs[j] /= sum
	}
	return probs
}

// SkewMasses rescales each point's probabilities in place by its own
// factor 1 + δ, δ uniform in ±0.99·uncertain.ProbSumTol, so the point
// masses land anywhere inside the tolerance validation accepts — deficits
// and surpluses both — rather than at 1 up to roundoff.
func SkewMasses[P any](rng *rand.Rand, pts []uncertain.Point[P]) {
	for _, p := range pts {
		s := 1 + (2*rng.Float64()-1)*0.99*uncertain.ProbSumTol
		for j := range p.Probs {
			p.Probs[j] *= s
		}
	}
}

func randVec(rng *rand.Rand, d int, scale float64) geom.Vec {
	v := geom.NewVec(d)
	for a := 0; a < d; a++ {
		v[a] = rng.NormFloat64() * scale
	}
	return v
}

// GaussianClusters generates n uncertain points in R^dim. True positions are
// drawn from `clusters` Gaussian clusters of spread clusterSpread placed
// uniformly in [0, 10]^dim; each point's z locations jitter around its true
// position with standard deviation jitter.
func GaussianClusters(rng *rand.Rand, n, z, dim, clusters int, clusterSpread, jitter float64) ([]uncertain.Point[geom.Vec], error) {
	if n <= 0 || z <= 0 || dim <= 0 || clusters <= 0 {
		return nil, fmt.Errorf("gen: invalid shape n=%d z=%d dim=%d clusters=%d", n, z, dim, clusters)
	}
	centers := make([]geom.Vec, clusters)
	for c := range centers {
		centers[c] = geom.NewVec(dim)
		for a := 0; a < dim; a++ {
			centers[c][a] = rng.Float64() * 10
		}
	}
	pts := make([]uncertain.Point[geom.Vec], n)
	for i := range pts {
		base := centers[rng.Intn(clusters)].Add(randVec(rng, dim, clusterSpread))
		locs := make([]geom.Vec, z)
		for j := range locs {
			locs[j] = base.Add(randVec(rng, dim, jitter))
		}
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// BimodalAdversarial generates n uncertain points whose mass splits between
// two modes separated by `separation`: location A near the origin-side mode
// anchor, location B across the gap. The expected point lies mid-gap, far
// from every actual location — the adversarial case for expected-point
// surrogates. Each point gets z locations, alternating modes, so z ≥ 2
// produces genuine bimodality.
func BimodalAdversarial(rng *rand.Rand, n, z, dim int, separation float64) ([]uncertain.Point[geom.Vec], error) {
	if n <= 0 || z < 2 || dim <= 0 || !(separation > 0) {
		return nil, fmt.Errorf("gen: invalid shape n=%d z=%d dim=%d sep=%g", n, z, dim, separation)
	}
	pts := make([]uncertain.Point[geom.Vec], n)
	for i := range pts {
		anchor := randVec(rng, dim, 1)
		offset := geom.NewVec(dim)
		offset[rng.Intn(dim)] = separation
		locs := make([]geom.Vec, z)
		for j := range locs {
			side := anchor
			if j%2 == 1 {
				side = anchor.Add(offset)
			}
			locs[j] = side.Add(randVec(rng, dim, separation/50))
		}
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// UniformBox generates n uncertain points with z locations each, all drawn
// uniformly from [0, side]^dim — the unstructured regime.
func UniformBox(rng *rand.Rand, n, z, dim int, side float64) ([]uncertain.Point[geom.Vec], error) {
	if n <= 0 || z <= 0 || dim <= 0 || !(side > 0) {
		return nil, fmt.Errorf("gen: invalid shape n=%d z=%d dim=%d side=%g", n, z, dim, side)
	}
	pts := make([]uncertain.Point[geom.Vec], n)
	for i := range pts {
		locs := make([]geom.Vec, z)
		for j := range locs {
			locs[j] = geom.NewVec(dim)
			for a := 0; a < dim; a++ {
				locs[j][a] = rng.Float64() * side
			}
		}
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// Mixture1D generates n one-dimensional uncertain points: true positions
// from `modes` mixture components on [0, 100], locations jittered around
// them. Returned points have dim-1 geom.Vec locations (the repository's 1D
// convention).
func Mixture1D(rng *rand.Rand, n, z, modes int, jitter float64) ([]uncertain.Point[geom.Vec], error) {
	if n <= 0 || z <= 0 || modes <= 0 {
		return nil, fmt.Errorf("gen: invalid shape n=%d z=%d modes=%d", n, z, modes)
	}
	anchors := make([]float64, modes)
	for m := range anchors {
		anchors[m] = rng.Float64() * 100
	}
	pts := make([]uncertain.Point[geom.Vec], n)
	for i := range pts {
		base := anchors[rng.Intn(modes)] + rng.NormFloat64()*2
		locs := make([]geom.Vec, z)
		for j := range locs {
			locs[j] = geom.Vec{base + rng.NormFloat64()*jitter}
		}
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// HeterogeneousZ generates n uncertain points whose location counts vary
// per point, z_i uniform in {1, …, zMax} — matching the paper's model where
// z = max z_i but points differ. Locations cluster like GaussianClusters.
func HeterogeneousZ(rng *rand.Rand, n, zMax, dim int) ([]uncertain.Point[geom.Vec], error) {
	if n <= 0 || zMax <= 0 || dim <= 0 {
		return nil, fmt.Errorf("gen: invalid shape n=%d zMax=%d dim=%d", n, zMax, dim)
	}
	pts := make([]uncertain.Point[geom.Vec], n)
	for i := range pts {
		z := 1 + rng.Intn(zMax)
		base := geom.NewVec(dim)
		for a := 0; a < dim; a++ {
			base[a] = rng.Float64() * 10
		}
		locs := make([]geom.Vec, z)
		for j := range locs {
			locs[j] = base.Add(randVec(rng, dim, 0.5))
		}
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// OnVertices generates n uncertain points over the vertices of a finite
// metric space: each point's z locations are distinct random vertices.
// Locality can be induced by the space itself (e.g. grid metrics).
func OnVertices(rng *rand.Rand, space *metricspace.Finite, n, z int) ([]uncertain.Point[int], error) {
	if n <= 0 || z <= 0 {
		return nil, fmt.Errorf("gen: invalid shape n=%d z=%d", n, z)
	}
	if space.N() == 0 {
		return nil, fmt.Errorf("gen: empty finite space")
	}
	if z > space.N() {
		z = space.N()
	}
	pts := make([]uncertain.Point[int], n)
	for i := range pts {
		perm := rng.Perm(space.N())
		locs := append([]int(nil), perm[:z]...)
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// OnVerticesLocal generates uncertain points over vertices where each
// point's locations are the z nearest vertices to a random anchor — the
// "GPS noise on a road network" model, localized rather than scattered.
func OnVerticesLocal(rng *rand.Rand, space *metricspace.Finite, n, z int) ([]uncertain.Point[int], error) {
	if n <= 0 || z <= 0 {
		return nil, fmt.Errorf("gen: invalid shape n=%d z=%d", n, z)
	}
	m := space.N()
	if m == 0 {
		return nil, fmt.Errorf("gen: empty finite space")
	}
	if z > m {
		z = m
	}
	pts := make([]uncertain.Point[int], n)
	for i := range pts {
		anchor := rng.Intn(m)
		// z nearest vertices to the anchor (anchor included).
		order := make([]int, m)
		for v := range order {
			order[v] = v
		}
		// Selection of the z smallest by distance — m is small, simple sort.
		for a := 0; a < z; a++ {
			best := a
			for b := a + 1; b < m; b++ {
				if space.Dist(anchor, order[b]) < space.Dist(anchor, order[best]) {
					best = b
				}
			}
			order[a], order[best] = order[best], order[a]
		}
		locs := append([]int(nil), order[:z]...)
		p, err := uncertain.New(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}
