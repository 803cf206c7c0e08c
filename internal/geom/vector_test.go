package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func TestNewVec(t *testing.T) {
	v := NewVec(3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("coordinate %d = %g, want 0", i, x)
		}
	}
}

func TestNewVecPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVec(-1) did not panic")
		}
	}()
	NewVec(-1)
}

func TestCloneIsIndependent(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestAddSubScale(t *testing.T) {
	v := Vec{1, 2}
	w := Vec{3, -4}
	if got := v.Add(w); !got.Equal(Vec{4, -2}, tol) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); !got.Equal(Vec{-2, 6}, tol) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(-2); !got.Equal(Vec{-2, -4}, tol) {
		t.Errorf("Scale = %v", got)
	}
	// Originals untouched.
	if !v.Equal(Vec{1, 2}, 0) || !w.Equal(Vec{3, -4}, 0) {
		t.Error("Add/Sub/Scale mutated their inputs")
	}
}

func TestInPlaceOps(t *testing.T) {
	v := Vec{1, 1}
	v.AddInPlace(Vec{2, 3})
	if !v.Equal(Vec{3, 4}, tol) {
		t.Errorf("AddInPlace = %v", v)
	}
	v.AxpyInPlace(2, Vec{1, 0})
	if !v.Equal(Vec{5, 4}, tol) {
		t.Errorf("AxpyInPlace = %v", v)
	}
	v.ScaleInPlace(0.5)
	if !v.Equal(Vec{2.5, 2}, tol) {
		t.Errorf("ScaleInPlace = %v", v)
	}
}

func TestDotAndNorms(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Dot(Vec{1, 2}); got != 11 {
		t.Errorf("Dot = %g, want 11", got)
	}
	if got := v.Norm(); math.Abs(got-5) > tol {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := v.Norm1(); got != 7 {
		t.Errorf("Norm1 = %g, want 7", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
	neg := Vec{-3, -4}
	if got := neg.Norm1(); got != 7 {
		t.Errorf("Norm1 of negative = %g, want 7", got)
	}
}

func TestDistances(t *testing.T) {
	v, w := Vec{0, 0}, Vec{3, 4}
	if got := Dist(v, w); math.Abs(got-5) > tol {
		t.Errorf("Dist = %g, want 5", got)
	}
	if got := DistSq(v, w); math.Abs(got-25) > tol {
		t.Errorf("DistSq = %g, want 25", got)
	}
	if got := Dist1(v, w); got != 7 {
		t.Errorf("Dist1 = %g, want 7", got)
	}
	if got := DistInf(v, w); got != 4 {
		t.Errorf("DistInf = %g, want 4", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Vec{1}.Add(Vec{1, 2}) },
		func() { Vec{1}.Sub(Vec{1, 2}) },
		func() { Vec{1}.Dot(Vec{1, 2}) },
		func() { Dist(Vec{1}, Vec{1, 2}) },
		func() { Dist1(Vec{1}, Vec{1, 2}) },
		func() { DistInf(Vec{1}, Vec{1, 2}) },
		func() { Vec{1}.Lerp(Vec{1, 2}, 0.5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic on dimension mismatch", i)
				}
			}()
			f()
		}()
	}
}

func TestLerp(t *testing.T) {
	v, w := Vec{0, 0}, Vec{10, 20}
	if got := v.Lerp(w, 0); !got.Equal(v, tol) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := v.Lerp(w, 1); !got.Equal(w, tol) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := v.Lerp(w, 0.25); !got.Equal(Vec{2.5, 5}, tol) {
		t.Errorf("Lerp(0.25) = %v", got)
	}
}

func TestEqual(t *testing.T) {
	if !(Vec{1, 2}).Equal(Vec{1 + 1e-13, 2}, 1e-12) {
		t.Error("Equal rejected within tolerance")
	}
	if (Vec{1, 2}).Equal(Vec{1.1, 2}, 1e-12) {
		t.Error("Equal accepted outside tolerance")
	}
	if (Vec{1, 2}).Equal(Vec{1, 2, 3}, 1) {
		t.Error("Equal accepted dimension mismatch")
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec{math.NaN()}).IsFinite() {
		t.Error("NaN reported finite")
	}
	if (Vec{math.Inf(1)}).IsFinite() {
		t.Error("+Inf reported finite")
	}
}

func TestString(t *testing.T) {
	if got := (Vec{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestMean(t *testing.T) {
	pts := []Vec{{0, 0}, {2, 4}, {4, 2}}
	if got := Mean(pts); !got.Equal(Vec{2, 2}, tol) {
		t.Errorf("Mean = %v", got)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean(nil) did not panic")
		}
	}()
	Mean(nil)
}

func TestWeightedMean(t *testing.T) {
	pts := []Vec{{0, 0}, {4, 0}}
	got := WeightedMean(pts, []float64{1, 3})
	if !got.Equal(Vec{3, 0}, tol) {
		t.Errorf("WeightedMean = %v, want (3, 0)", got)
	}
}

func TestWeightedMeanErrors(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { WeightedMean(nil, nil) })
	mustPanic("length mismatch", func() { WeightedMean([]Vec{{1}}, []float64{1, 2}) })
	mustPanic("zero weight", func() { WeightedMean([]Vec{{1}}, []float64{0}) })
}

// randomVecPair draws two vectors of the same random dimension for
// property-based tests.
func randomVecPair(r *rand.Rand) (Vec, Vec) {
	d := 1 + r.Intn(6)
	v, w := NewVec(d), NewVec(d)
	for i := 0; i < d; i++ {
		v[i] = r.NormFloat64() * 10
		w[i] = r.NormFloat64() * 10
	}
	return v, w
}

func TestPropertyTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		u, v := randomVecPair(r)
		w := NewVec(u.Dim())
		for i := range w {
			w[i] = r.NormFloat64() * 10
		}
		for name, d := range map[string]func(Vec, Vec) float64{
			"L2": Dist, "L1": Dist1, "Linf": DistInf,
		} {
			if d(u, w) > d(u, v)+d(v, w)+1e-9 {
				t.Fatalf("%s triangle inequality violated: d(u,w)=%g > %g", name, d(u, w), d(u, v)+d(v, w))
			}
			if math.Abs(d(u, v)-d(v, u)) > 1e-12 {
				t.Fatalf("%s not symmetric", name)
			}
			if d(u, u) != 0 {
				t.Fatalf("%s d(u,u) != 0", name)
			}
		}
	}
}

func TestPropertyNormOrdering(t *testing.T) {
	// ‖v‖∞ ≤ ‖v‖₂ ≤ ‖v‖₁ for every vector.
	f := func(a, b, c float64) bool {
		v := Vec{a, b, c}
		// Skip non-finite inputs and magnitudes where x² overflows.
		if !v.IsFinite() || v.NormInf() > 1e150 {
			return true
		}
		return v.NormInf() <= v.Norm()+1e-9 && v.Norm() <= v.Norm1()*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		v, w := Vec{a, b}, Vec{c, d}
		if !v.IsFinite() || !w.IsFinite() {
			return true
		}
		lhs := math.Abs(v.Dot(w))
		rhs := v.Norm() * w.Norm()
		if math.IsInf(rhs, 0) || math.IsNaN(rhs) {
			return true
		}
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeanMinimizesSquaredDist(t *testing.T) {
	// The centroid minimizes the sum of squared distances; any perturbation
	// must not decrease it.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(8)
		d := 1 + r.Intn(4)
		pts := make([]Vec, n)
		for i := range pts {
			pts[i] = NewVec(d)
			for j := 0; j < d; j++ {
				pts[i][j] = r.NormFloat64()
			}
		}
		m := Mean(pts)
		sum := func(c Vec) float64 {
			var s float64
			for _, p := range pts {
				s += DistSq(p, c)
			}
			return s
		}
		base := sum(m)
		pert := m.Clone()
		pert[r.Intn(d)] += 0.1
		if sum(pert) < base-1e-9 {
			t.Fatalf("perturbed centroid beat centroid: %g < %g", sum(pert), base)
		}
	}
}

func BenchmarkDist(b *testing.B) {
	v, w := make(Vec, 8), make(Vec, 8)
	for i := range v {
		v[i] = float64(i)
		w[i] = float64(i * i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dist(v, w)
	}
}

// flatCoord draws a coordinate for the flat-kernel tests: ±0, or a signed
// magnitude anywhere from 1e-160 to 1e160, so that squares underflow to 0
// and overflow to +Inf.
func flatCoord(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	x := (1 + r.Float64()) * math.Pow(10, float64(r.Intn(321)-160))
	if r.Intn(2) == 0 {
		x = -x
	}
	return x
}

// checkFlatKernels holds DistsFlat and MinDistsFlat to Dist and the least
// Dist under math.Float64bits, on every point of xy against every target
// and against all of them. It returns the number of results that overflowed
// to +Inf and that underflowed to 0 between distinct points.
func checkFlatKernels(t *testing.T, xy []float64, d int, qs []Vec) (overflow, underflow int) {
	t.Helper()
	n := len(xy) / d
	dst := make([]float64, n)
	for _, q := range qs {
		DistsFlat(dst, xy, d, q)
		least := math.Inf(1)
		for j, got := range dst {
			least = min(least, got)
			p := Vec(xy[j*d : (j+1)*d])
			want := Dist(p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d: DistsFlat(%v, %v) = %v, Dist = %v", d, p, q, got, want)
			}
			if math.IsInf(got, 1) {
				overflow++
			}
			if got == 0 && !p.Equal(q, 0) {
				underflow++
			}
		}
		if got := MinDistFlat(xy, d, q, -1); math.Float64bits(got) != math.Float64bits(least) {
			t.Fatalf("d=%d: MinDistFlat(%v) = %v, least Dist = %v", d, q, got, least)
		}
		// With a floor, the exact least distance whenever it is above the
		// floor, and a value at most the floor otherwise: floors at, just
		// around and far from every distance.
		for _, dd := range dst {
			for _, floor := range []float64{dd, math.Nextafter(dd, 0), math.Nextafter(dd, math.Inf(1)), dd / 2, 2 * dd, 0} {
				got := MinDistFlat(xy, d, q, floor)
				if least > floor && math.Float64bits(got) != math.Float64bits(least) {
					t.Fatalf("d=%d: MinDistFlat(%v, floor %v) = %v, least Dist = %v", d, q, floor, got, least)
				}
				if least <= floor && got > floor {
					t.Fatalf("d=%d: MinDistFlat(%v, floor %v) = %v above the floor, least Dist = %v", d, q, floor, got, least)
				}
			}
		}
	}
	MinDistsFlat(dst, xy, d, qs)
	for j, got := range dst {
		p := Vec(xy[j*d : (j+1)*d])
		want := math.Inf(1)
		for _, q := range qs {
			if dd := Dist(p, q); dd < want {
				want = dd
			}
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%d: MinDistsFlat(%v) = %v, least Dist = %v", d, p, got, want)
		}
	}
	return overflow, underflow
}

// TestFlatKernelsBitIdentical pins DistsFlat, MinDistFlat and MinDistsFlat
// to Dist bit for bit on both sides of the planar case, over ±0
// coordinates, coincident points, and magnitudes whose squares underflow
// and overflow.
func TestFlatKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, d := range []int{1, 2, 3, 5} {
		var overflow, underflow int
		for trial := 0; trial < 200; trial++ {
			n := 1 + r.Intn(12)
			xy := make([]float64, n*d)
			for i := range xy {
				xy[i] = flatCoord(r)
			}
			qs := make([]Vec, r.Intn(4))
			for i := range qs {
				qs[i] = NewVec(d)
				for c := range qs[i] {
					qs[i][c] = flatCoord(r)
				}
			}
			// A target on one of the points, and one a hair off it.
			j := r.Intn(n)
			on := Vec(xy[j*d : (j+1)*d]).Clone()
			off := on.Clone()
			off[0] = math.Nextafter(off[0], math.Inf(1))
			qs = append(qs, on, off)
			o, u := checkFlatKernels(t, xy, d, qs)
			overflow += o
			underflow += u
		}
		if overflow == 0 || underflow == 0 {
			t.Fatalf("d=%d: %d overflows and %d underflows; the draw must reach both", d, overflow, underflow)
		}
	}
	// No targets: every minimum is +Inf.
	dst := []float64{1, 2}
	MinDistsFlat(dst, []float64{0, 0, 1, 1}, 2, nil)
	if !math.IsInf(dst[0], 1) || !math.IsInf(dst[1], 1) {
		t.Fatalf("MinDistsFlat over no targets = %v, want +Inf", dst)
	}
}

// TestFlatKernelsPanicOnDimensionMismatch: a target of the wrong length
// panics, as Dist does, rather than reading a prefix of it.
func TestFlatKernelsPanicOnDimensionMismatch(t *testing.T) {
	xy := []float64{0, 0, 1, 1}
	dst := make([]float64, 2)
	for name, f := range map[string]func(){
		"DistsFlat 3-D target":         func() { DistsFlat(dst, xy, 2, Vec{1, 2, 3}) },
		"DistsFlat 1-D target":         func() { DistsFlat(dst, xy, 2, Vec{1}) },
		"MinDistsFlat one 3-D target":  func() { MinDistsFlat(dst, xy, 2, []Vec{{1, 2}, {1, 2, 3}}) },
		"DistsFlat short column":       func() { DistsFlat(make([]float64, 3), xy, 2, Vec{1, 2}) },
		"MinDistsFlat d=3, 2-D target": func() { MinDistsFlat(dst[:1], xy[:3], 3, []Vec{{1, 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzDistsFlat checks DistsFlat, MinDistFlat and MinDistsFlat against
// Dist bit for bit on random dimensions up to 8 and random finite
// coordinates from ±0 up to magnitudes whose squares overflow (nightly:
// make fuzz-dist).
func FuzzDistsFlat(f *testing.F) {
	f.Add([]byte{1, 3, 2, 0, 1, 7, 255, 3, 128, 4, 9})
	f.Add([]byte{2, 4, 2, 10, 200, 30, 40, 90, 80, 1, 2, 3, 4, 200, 100, 7, 8})
	f.Add([]byte{7, 2, 1, 127, 127, 129, 127, 0, 0, 1, 129, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		coord := func() float64 {
			m, e := int8(next()), int8(next())
			if m == 0 && e < 0 {
				return math.Copysign(0, -1)
			}
			return math.Ldexp(float64(m), int(e)*8)
		}
		d := 1 + int(next())%8
		n := 1 + int(next())%8
		xy := make([]float64, n*d)
		for i := range xy {
			xy[i] = coord()
		}
		qs := make([]Vec, int(next())%4)
		for i := range qs {
			qs[i] = NewVec(d)
			for c := range qs[i] {
				qs[i][c] = coord()
			}
		}
		checkFlatKernels(t, xy, d, qs)
	})
}
