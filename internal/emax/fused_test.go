package emax

import (
	"math"
	"math/rand"
	"testing"
)

// minPair is one ExpectedMaxMinFlat input: two per-atom value arrays over
// a layout, av's per-RV maxima, and the materialized minima
// ExpectedMaxFlat sees with the split t* it would compute.
type minPair struct {
	lay                       *Layout
	av, bv, aMax, vals, probs []float64
	rvIdx                     []int32
	tStar                     float64
}

// newMinPair materializes v_f = min(av[f], bv[f]) — bv only where strictly
// smaller, as the swap evaluator does — and t* = max_i min_f v_f with
// ExpectedMaxFlat's first-wins comparisons.
func newMinPair(av, bv, probs []float64, offsets []int32) minPair {
	p := minPair{av: av, bv: bv, probs: probs, tStar: math.Inf(-1)}
	for i := 0; i+1 < len(offsets); i++ {
		m, mx := math.Inf(1), math.Inf(-1)
		for f := offsets[i]; f < offsets[i+1]; f++ {
			v := av[f]
			if bv[f] < v {
				v = bv[f]
			}
			p.vals = append(p.vals, v)
			p.rvIdx = append(p.rvIdx, int32(i))
			if v < m {
				m = v
			}
			mx = max(mx, av[f])
		}
		if m > p.tStar {
			p.tStar = m
		}
		p.aMax = append(p.aMax, mx)
	}
	p.lay = NewLayout(probs, offsets, p.rvIdx)
	return p
}

// randMinPair draws n RVs of 1..zMax atoms. Values come from a quarter
// grid with ±0 and duplicates (so atoms tie within and across RVs and with
// t*); av is sometimes +Inf, the empty base of a one-center scan, and the
// masses are skewed inside ProbSumTol. wide gives every RV one atom at −1
// and the rest on the grid, so t* = −1 and nearly every atom is live.
// allAtT forces RV 0's atoms all onto t*, RV 0 then taking the whole-RV
// path.
func randMinPair(rng *rand.Rand, n, zMax int, wide, allAtT bool) minPair {
	grid := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return float64(rng.Intn(24)) / 4
	}
	var av, bv, probs []float64
	offsets := []int32{0}
	for i := 0; i < n; i++ {
		z := 1 + rng.Intn(zMax)
		var sum float64
		start := len(probs)
		for j := 0; j < z; j++ {
			a, b := grid(), grid()
			if rng.Intn(4) == 0 {
				a = math.Inf(1)
			}
			if j > 0 && rng.Intn(5) == 0 { // duplicate atom
				a, b = av[len(av)-1], bv[len(bv)-1]
			}
			if wide && j == 0 {
				a, b = -1, -1
			}
			w := 0.05 + rng.Float64()
			av, bv, probs = append(av, a), append(bv, b), append(probs, w)
			sum += w
		}
		skew := 1 + (2*rng.Float64()-1)*0.99*ProbSumTol
		for f := start; f < len(probs); f++ {
			probs[f] = probs[f] / sum * skew
		}
		offsets = append(offsets, int32(len(probs)))
	}
	p := newMinPair(av, bv, probs, offsets)
	if allAtT {
		for f := offsets[0]; f < offsets[1]; f++ {
			av[f], bv[f] = p.tStar, p.tStar+1
		}
		p = newMinPair(av, bv, probs, offsets)
	}
	return p
}

// TestExpectedMaxMinFlatMatchesFlat pins the fused entry point to
// ExpectedMaxFlat on the materialized minima, bit for bit: ties, ±0,
// duplicate atoms, +Inf base values, skewed masses, RVs wholly at or below
// t*, and live sets on both sides of insertionCutoff, each arena reused
// across trials.
func TestExpectedMaxMinFlatMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	var fused, flat Arena
	below, above, whole := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		n, zMax := 1+rng.Intn(30), 1+rng.Intn(6)
		p := randMinPair(rng, n, zMax, trial%3 == 0, trial%5 == 0)
		got := fused.ExpectedMaxMinFlat(p.lay, p.av, p.bv, p.aMax, p.tStar)
		want := flat.ExpectedMaxFlat(p.vals, p.probs, p.rvIdx, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): ExpectedMaxMinFlat %.17g, ExpectedMaxFlat %.17g", trial, n, got, want)
		}
		if len(fused.liveVals) != len(flat.liveVals) {
			t.Fatalf("trial %d: live set of %d atoms, ExpectedMaxFlat's %d", trial, len(fused.liveVals), len(flat.liveVals))
		}
		if len(fused.liveVals) < insertionCutoff {
			below++
		} else {
			above++
		}
		for _, m := range p.aMax {
			if m <= p.tStar {
				whole++
			}
		}
	}
	if below == 0 || above == 0 || whole == 0 {
		t.Fatalf("live sets: %d below and %d at or above the insertion cutoff, %d whole RVs; want all three", below, above, whole)
	}
	if got := fused.ExpectedMaxMinFlat(NewLayout(nil, []int32{0}, nil), nil, nil, nil, 0); got != 0 {
		t.Errorf("no atoms: %g, want 0", got)
	}
}

// TestLayoutMass pins Mass to Π_i min(1, Σ of RV i's probs), over skewed
// masses on both sides of 1.
func TestLayoutMass(t *testing.T) {
	probs := []float64{0.5, 0.5 - 1e-10, 0.25, 0.75 + 1e-10, 1 - 2e-10}
	l := NewLayout(probs, []int32{0, 2, 4, 5}, []int32{0, 0, 1, 1, 2})
	if got, want := l.Mass(), (1-1e-10)*(1-2e-10); math.Abs(got-want) > 1e-16 {
		t.Fatalf("Mass = %.17g, want %.17g", got, want)
	}
}

// TestExpectedMaxMinFlatAllocs pins the fused entry point allocation-free
// on a warmed arena, with live sets on both sides of insertionCutoff.
func TestExpectedMaxMinFlatAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	for _, wide := range []bool{false, true} {
		p := randMinPair(rng, 50, 5, wide, false)
		var a Arena
		want := a.ExpectedMaxMinFlat(p.lay, p.av, p.bv, p.aMax, p.tStar)
		allocs := testing.AllocsPerRun(100, func() {
			if got := a.ExpectedMaxMinFlat(p.lay, p.av, p.bv, p.aMax, p.tStar); got != want {
				t.Fatalf("warm ExpectedMaxMinFlat = %g, first call %g", got, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("live set of %d: warm ExpectedMaxMinFlat allocates %v times per call, want 0", len(a.liveVals), allocs)
		}
	}
}
