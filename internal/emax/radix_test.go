package emax

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// radixInputs are the value families the sort must order like a stable
// comparison sort: coarse grids full of ties (rounding small negatives
// yields −0 beside +0), signed zeros, subnormals, huge magnitudes with
// infinities, every exponent at once, and all-equal inputs.
var radixInputs = []struct {
	name string
	gen  func(rng *rand.Rand) float64
}{
	{"grid-ties", func(rng *rand.Rand) float64 { return math.Round(rng.NormFloat64()*3) / 2 }},
	{"signed-zeros", func(rng *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
	}},
	{"subnormal", func(rng *rand.Rand) float64 {
		return float64(rng.Intn(64)-32) * math.SmallestNonzeroFloat64
	}},
	{"huge", func(rng *rand.Rand) float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.MaxFloat64
		case 3:
			return -math.MaxFloat64
		}
		return (rng.Float64()*2 - 1) * math.MaxFloat64
	}},
	{"all-exponents", func(rng *rand.Rand) float64 {
		v := math.Ldexp(rng.Float64(), rng.Intn(2098)-1074)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
	{"distances", func(rng *rand.Rand) float64 { return rng.Float64() * 100 }},
	{"all-equal", func(*rand.Rand) float64 { return 2.5 }},
	{"all-equal-negative", func(*rand.Rand) float64 { return -7 }},
}

// TestArgsortMatchesSliceStable pins both of Sorter's paths to the
// canonical (value, index) order that sort.SliceStable yields, index for
// index, on every value family: the insertion sort below insertionCutoff
// and the radix sort from it on, with lengths around the cutoff and around
// the 8-bit digit width. One sorter serves every case, so stale scratch
// from a longer earlier input would show.
func TestArgsortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	var s Sorter
	for _, n := range []int{10000, 0, 1, 2, 3, 17, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 255, 256, 257} {
		for _, in := range radixInputs {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = in.gen(rng)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(x, y int) bool { return vals[want[x]] < vals[want[y]] })
			for i, it := range s.sort(vals) {
				if it.idx != want[i] {
					t.Fatalf("%s n=%d: ord[%d] = %d (%g), want %d (%g)",
						in.name, n, i, it.idx, vals[it.idx], want[i], vals[want[i]])
				}
			}
		}
	}
}

// TestExpectedMaxFlatAllocs pins the flat fast path allocation-free on a
// warmed arena, with live sets on both sides of insertionCutoff: the CDF
// state, the live set and its sort scratch are all reused.
func TestExpectedMaxFlatAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	for _, rvs := range [][]RV{randomRVs(rng, 50), wideRVs(rng, 50, 5)} {
		vals, l := flatten(rvs)
		var a Arena
		want := a.ExpectedMaxFlat(l, vals)
		allocs := testing.AllocsPerRun(100, func() {
			if got := a.ExpectedMaxFlat(l, vals); got != want {
				t.Fatalf("warm ExpectedMaxFlat = %g, first call %g", got, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("live set of %d: warm ExpectedMaxFlat allocates %v times per call, want 0", len(a.liveVals), allocs)
		}
	}
}

// TestArenaExpectedMaxAllocs pins the validating arena path
// allocation-free once warmed.
func TestArenaExpectedMaxAllocs(t *testing.T) {
	rvs := randomRVs(rand.New(rand.NewSource(133)), 50)
	var a Arena
	if _, err := a.ExpectedMax(rvs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.ExpectedMax(rvs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Arena.ExpectedMax allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkArgsort times one argsort of distance-like values on both sides
// of insertionCutoff.
func BenchmarkArgsort(b *testing.B) {
	rng := rand.New(rand.NewSource(134))
	for _, n := range []int{16, 240, 800, 10000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var s Sorter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.sort(vals)
			}
		})
	}
}
