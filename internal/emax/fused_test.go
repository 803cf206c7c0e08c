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

// fused runs ExpectedMaxMinFlat on a, handing it bv one RV at a time.
func (p minPair) fused(a *Arena, cost0 float64) (float64, bool) {
	return a.ExpectedMaxMinFlat(p.lay, p.av, p.aMax, p.tStar, cost0, func(i int, dst []float64) {
		copy(dst, p.bv[p.lay.offsets[i]:p.lay.offsets[i+1]])
	})
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
		got, cut := p.fused(&fused, math.Inf(1))
		want := flat.ExpectedMaxFlat(p.vals, p.probs, p.rvIdx, n)
		if cut {
			t.Fatalf("trial %d (n=%d): the disarmed certificate cut", trial, n)
		}
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
	if got, cut := fused.ExpectedMaxMinFlat(NewLayout(nil, []int32{0}, nil), nil, nil, 0, 0, nil); got != 0 || cut {
		t.Errorf("no atoms: %g (cut %v), want 0", got, cut)
	}
}

// TestExpectedMaxMinFlatExcessSound drives the expected-excess
// certificate over the same generator, thresholds at, just above and just
// below each exact result: an armed call returns the unarmed result bit for
// bit with cut unset, or +Inf with cut set only when that result is at
// least cost0 up to 1e-12 relative. Negative values, ±0, +Inf base values
// and masses on both sides of 1 all occur; the certificate must fire on
// some trials.
func TestExpectedMaxMinFlatExcessSound(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	var a Arena
	fired := 0
	for trial := 0; trial < 2000; trial++ {
		n, zMax := 1+rng.Intn(30), 1+rng.Intn(6)
		p := randMinPair(rng, n, zMax, trial%3 == 0, trial%5 == 0)
		exact, _ := p.fused(&a, math.Inf(1))
		scale := math.Max(1, math.Abs(exact))
		for _, cost0 := range []float64{exact, exact + 1e-9*scale, exact - 1e-9*scale, exact + scale*rng.Float64()} {
			got, cut := p.fused(&a, cost0)
			if cut {
				fired++
				if !math.IsInf(got, 1) {
					t.Fatalf("trial %d (n=%d): cut with result %g, want +Inf", trial, n, got)
				}
				if exact < cost0-1e-12*scale {
					t.Fatalf("trial %d (n=%d): certified at cost0 %.17g, exact %.17g", trial, n, cost0, exact)
				}
			} else if math.Float64bits(got) != math.Float64bits(exact) {
				t.Fatalf("trial %d (n=%d): armed %.17g, unarmed %.17g", trial, n, got, exact)
			}
		}
	}
	if fired == 0 {
		t.Fatal("the certificate never fired")
	}
}

// TestExpectedMaxMinFlatInfNotCut pins the cut flag to the certificate: a
// live atom at +Inf, an overflowed distance, makes the exact result +Inf
// and the certificate's expression NaN, so an armed call returns the
// sweep's +Inf with cut unset rather than reporting a skip.
func TestExpectedMaxMinFlatInfNotCut(t *testing.T) {
	inf := math.Inf(1)
	p := newMinPair([]float64{inf, inf}, []float64{inf, 1}, []float64{0.5, 0.5}, []int32{0, 2})
	var a Arena
	for _, cost0 := range []float64{inf, 5} {
		if got, cut := p.fused(&a, cost0); !math.IsInf(got, 1) || cut {
			t.Fatalf("cost0 %g: %g (cut %v), want +Inf from the sweep", cost0, got, cut)
		}
	}
}

// TestLayoutMass pins Mass to Π_i min(1, Σ of RV i's probs), and the
// certificate's per-RV constants, over skewed masses on both sides of 1.
func TestLayoutMass(t *testing.T) {
	probs := []float64{0.5, 0.5 - 1e-10, 0.25, 0.75 + 1e-10, 1 - 2e-10}
	l := NewLayout(probs, []int32{0, 2, 4, 5}, []int32{0, 0, 1, 1, 2})
	if got, want := l.Mass(), (1-1e-10)*(1-2e-10); math.Abs(got-want) > 1e-16 {
		t.Fatalf("Mass = %.17g, want %.17g", got, want)
	}
	// The certificate's constants: only RV 1 has surplus mass, and its
	// clamped mass is 1, so its ratio is G∞ itself.
	if l.over[0] != 0 || l.over[2] != 0 || math.Abs(l.over[1]-1e-10) > 1e-16 {
		t.Fatalf("over = %v, want [0 1e-10 0]", l.over)
	}
	if l.ratio[1] != l.Mass() || l.ratio[0] != l.Mass()/l.full[0] {
		t.Fatalf("ratio = %v, want G∞/F_i(∞)", l.ratio)
	}
}

// TestExpectedMaxMinFlatAllocs pins the fused entry point allocation-free
// on a warmed arena, with live sets on both sides of insertionCutoff.
func TestExpectedMaxMinFlatAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	for _, wide := range []bool{false, true} {
		p := randMinPair(rng, 50, 5, wide, false)
		var a Arena
		want, _ := p.fused(&a, math.Inf(1))
		allocs := testing.AllocsPerRun(100, func() {
			if got, _ := p.fused(&a, math.Inf(1)); got != want {
				t.Fatalf("warm ExpectedMaxMinFlat = %g, first call %g", got, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("live set of %d: warm ExpectedMaxMinFlat allocates %v times per call, want 0", len(a.liveVals), allocs)
		}
	}
}
