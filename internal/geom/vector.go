// Package geom provides the low-level vector geometry used throughout the
// repository: points in R^d, the standard vector operations, distances under
// the L1, L2 and L∞ norms, and axis-aligned bounding boxes.
//
// A point is a plain []float64 so that callers can build instances with
// literals and slices; every function treats its arguments as immutable
// unless the name ends in InPlace.
package geom

import (
	"fmt"
	"math"
)

// Vec is a point (or displacement) in R^d. The dimension is len(v).
type Vec []float64

// NewVec returns a zero vector of dimension d. It panics if d < 0.
func NewVec(d int) Vec {
	if d < 0 {
		panic(fmt.Sprintf("geom: negative dimension %d", d))
	}
	return make(Vec, d)
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimension of v.
func (v Vec) Dim() int { return len(v) }

// Add returns v + w. It panics on dimension mismatch.
func (v Vec) Add(w Vec) Vec {
	checkDim(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics on dimension mismatch.
func (v Vec) Sub(w Vec) Vec {
	checkDim(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s·v.
func (v Vec) Scale(s float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// AddInPlace sets v = v + w and returns v. It panics on dimension mismatch.
func (v Vec) AddInPlace(w Vec) Vec {
	checkDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// AxpyInPlace sets v = v + s·w and returns v. It panics on dimension mismatch.
func (v Vec) AxpyInPlace(s float64, w Vec) Vec {
	checkDim(v, w)
	for i := range v {
		v[i] += s * w[i]
	}
	return v
}

// ScaleInPlace sets v = s·v and returns v.
func (v Vec) ScaleInPlace(s float64) Vec {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Dot returns the inner product <v, w>. It panics on dimension mismatch.
func (v Vec) Dot(w Vec) float64 {
	checkDim(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm1 returns the L1 norm ‖v‖₁.
func (v Vec) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the L∞ norm ‖v‖∞.
func (v Vec) NormInf() float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Lerp returns (1-t)·v + t·w, the point a fraction t of the way from v to w.
func (v Vec) Lerp(w Vec, t float64) Vec {
	checkDim(v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + t*(w[i]-v[i])
	}
	return out
}

// Equal reports whether v and w have the same dimension and every coordinate
// differs by at most tol.
func (v Vec) Equal(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every coordinate of v is finite (no NaN or ±Inf).
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// String formats v as "(x₁, x₂, …)".
func (v Vec) String() string {
	s := "("
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%g", x)
	}
	return s + ")"
}

// Dist returns the Euclidean distance between v and w.
func Dist(v, w Vec) float64 { return math.Sqrt(DistSq(v, w)) }

// DistSq returns the squared Euclidean distance between v and w.
func DistSq(v, w Vec) float64 {
	checkDim(v, w)
	return distSq(v, w)
}

// distSq is DistSq without the dimension check: the squares accumulate
// from 0 in coordinate order. Dist and the flat kernels all go through it
// or through distSq2, its planar unrolling, so they round alike.
func distSq(v, w []float64) float64 {
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// distSq2 is distSq's two steps for the coordinate differences of a planar
// pair, written in the loop's order so a target that fuses multiply-adds
// fuses both alike.
func distSq2(tx, ty float64) float64 {
	s := 0 + tx*tx
	s += ty * ty
	return s
}

// DistsFlat sets dst[j] = Dist(xy[j·d:(j+1)·d], q) for every j in range
// dst: the distances from q to len(dst) points stored row-major in one flat
// coordinate column, bit-identical to Dist. It checks q's dimension once,
// panicking as Dist does when len(q) != d, and panics when xy holds fewer
// than len(dst)·d coordinates.
func DistsFlat(dst, xy []float64, d int, q Vec) {
	checkFlatDim(d, q)
	xy = xy[:len(dst)*d]
	if d == 2 {
		qx, qy := q[0], q[1]
		for j := range dst {
			dst[j] = math.Sqrt(distSq2(xy[2*j]-qx, xy[2*j+1]-qy))
		}
		return
	}
	for j := range dst {
		dst[j] = math.Sqrt(distSq(xy[j*d:(j+1)*d], q))
	}
}

// MinDistsFlat sets dst[j] to the least Dist(xy[j·d:(j+1)·d], q) over q in
// qs (+Inf when qs is empty). It compares squared distances and takes one
// Sqrt per point; Sqrt is correctly rounded and monotone, so the result is
// bit-identical to the least Dist. It panics like DistsFlat.
func MinDistsFlat(dst, xy []float64, d int, qs []Vec) {
	for _, q := range qs {
		checkFlatDim(d, q)
	}
	xy = xy[:len(dst)*d]
	if d == 2 {
		for j := range dst {
			x, y := xy[2*j], xy[2*j+1]
			best := math.Inf(1)
			for _, q := range qs {
				if s := distSq2(x-q[0], y-q[1]); s < best {
					best = s
				}
			}
			dst[j] = math.Sqrt(best)
		}
		return
	}
	for j := range dst {
		p := xy[j*d : (j+1)*d]
		best := math.Inf(1)
		for _, q := range qs {
			if s := distSq(p, q); s < best {
				best = s
			}
		}
		dst[j] = math.Sqrt(best)
	}
}

// MinDistFlat returns the least Dist(xy[j·d:(j+1)·d], q) over the
// len(xy)/d points of xy (+Inf when xy is empty): the least squared
// distance and one Sqrt, so it is bit-identical to the least Dist, like
// MinDistsFlat. It stops early, returning a value at most floor, once one
// point is within floor of q; a negative floor never stops it. It checks
// q's dimension as DistsFlat does.
func MinDistFlat(xy []float64, d int, q Vec, floor float64) float64 {
	checkFlatDim(d, q)
	// Sqrt(fl(floor²)) is floor whenever floor² is a normal number, so a
	// squared distance at most fl(floor²) is a distance at most floor.
	// Below the normal range only 0 is certain.
	stop := -1.0
	if floor >= 0 {
		if stop = floor * floor; stop < 0x1p-1022 {
			stop = 0
		}
	}
	best := math.Inf(1)
	if d == 2 {
		qx, qy := q[0], q[1]
		for j := 0; j < len(xy)/2; j++ {
			if s := distSq2(xy[2*j]-qx, xy[2*j+1]-qy); s < best {
				if best = s; s <= stop {
					break
				}
			}
		}
		return math.Sqrt(best)
	}
	for j := 0; j < len(xy)/max(d, 1); j++ {
		if s := distSq(xy[j*d:(j+1)*d], q); s < best {
			if best = s; s <= stop {
				break
			}
		}
	}
	return math.Sqrt(best)
}

// Dist1 returns the L1 (Manhattan) distance between v and w.
func Dist1(v, w Vec) float64 {
	checkDim(v, w)
	var s float64
	for i := range v {
		s += math.Abs(v[i] - w[i])
	}
	return s
}

// DistInf returns the L∞ (Chebyshev) distance between v and w.
func DistInf(v, w Vec) float64 {
	checkDim(v, w)
	var s float64
	for i := range v {
		if d := math.Abs(v[i] - w[i]); d > s {
			s = d
		}
	}
	return s
}

// Mean returns the unweighted centroid of pts. It panics if pts is empty or
// dimensions disagree.
func Mean(pts []Vec) Vec {
	if len(pts) == 0 {
		panic("geom: Mean of empty point set")
	}
	out := NewVec(len(pts[0]))
	for _, p := range pts {
		out.AddInPlace(p)
	}
	return out.ScaleInPlace(1 / float64(len(pts)))
}

// WeightedMean returns Σ wᵢ·ptsᵢ / Σ wᵢ. It panics if the slices have
// different lengths, pts is empty, or the total weight is not positive.
func WeightedMean(pts []Vec, weights []float64) Vec {
	if len(pts) == 0 {
		panic("geom: WeightedMean of empty point set")
	}
	if len(pts) != len(weights) {
		panic(fmt.Sprintf("geom: WeightedMean got %d points and %d weights", len(pts), len(weights)))
	}
	out := NewVec(len(pts[0]))
	var total float64
	for i, p := range pts {
		out.AxpyInPlace(weights[i], p)
		total += weights[i]
	}
	if total <= 0 {
		panic("geom: WeightedMean with non-positive total weight")
	}
	return out.ScaleInPlace(1 / total)
}

func checkDim(v, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// checkFlatDim is checkDim for a target against d-dimensional rows.
func checkFlatDim(d int, q Vec) {
	if len(q) != d {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", d, len(q)))
	}
}
