package emax

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// minPair is one ExpectedMaxMinFlat input: two per-atom value arrays over
// a layout, av's per-RV maxima and the RVs in descending order of them,
// and the materialized minima ExpectedMaxFlat sees with the split t* it
// would compute.
type minPair struct {
	lay                       *Layout
	av, bv, aMax, vals, probs []float64
	rvIdx, byMax              []int32
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
		p.byMax = append(p.byMax, int32(i))
	}
	sort.SliceStable(p.byMax, func(x, y int) bool { return p.aMax[p.byMax[x]] > p.aMax[p.byMax[y]] })
	p.lay = NewLayout(probs, offsets, p.rvIdx)
	return p
}

// fused runs ExpectedMaxMinFlat on a, handing it bv one RV at a time.
func (p minPair) fused(a *Arena, cost0 float64) (float64, bool) {
	return a.ExpectedMaxMinFlat(p.lay, p.av, p.aMax, p.byMax, p.tStar, cost0, func(i int, dst []float64) {
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
		want := flat.ExpectedMaxFlat(p.lay, p.vals)
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
	if got, cut := fused.ExpectedMaxMinFlat(NewLayout(nil, []int32{0}, nil), nil, nil, nil, 0, 0, nil); got != 0 || cut {
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

// TestExpectedMaxMinFlatAfterPanic keeps a panicking atoms callback (a
// user metric's Dist can panic, and the server recovers it) from leaking
// into the arena's next evaluation: the call is cut off in word 0 of a
// 200-RV visit bitset with later words still marked (RVs 100–127 among
// them), and a 100-RV evaluation on the same arena must then match
// ExpectedMaxFlat bit for bit rather than visit the first call's RVs, some
// of them out of its range.
func TestExpectedMaxMinFlatAfterPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	big, small := randMinPair(rng, 200, 4, true, false), randMinPair(rng, 100, 4, true, false)
	if !slices.ContainsFunc(big.aMax[100:128], func(m float64) bool { return m > big.tStar }) {
		t.Fatal("RVs 100–127 are all settled; the first call must mark one in word 1")
	}
	var a Arena
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the atoms callback did not panic")
			}
		}()
		a.ExpectedMaxMinFlat(big.lay, big.av, big.aMax, big.byMax, big.tStar, math.Inf(1), func(i int, dst []float64) {
			panic(i)
		})
	}()
	var flat Arena
	got, cut := small.fused(&a, math.Inf(1))
	if want := flat.ExpectedMaxFlat(small.lay, small.vals); cut || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after a panic: ExpectedMaxMinFlat %.17g (cut %v), ExpectedMaxFlat %.17g", got, cut, want)
	}
}

// TestLayoutMass pins Mass to Π_i min(1, Σ of RV i's probs), log G∞ to the
// compensated RV-order sum of the logs of the masses below 1, and the
// certificate's per-RV constants, over skewed masses on both sides of 1.
func TestLayoutMass(t *testing.T) {
	probs := []float64{0.5, 0.5 - 1e-10, 0.25, 0.75 + 1e-10, 1 - 2e-10}
	l := NewLayout(probs, []int32{0, 2, 4, 5}, []int32{0, 0, 1, 1, 2})
	if got, want := l.Mass(), (1-1e-10)*(1-2e-10); math.Abs(got-want) > 1e-16 {
		t.Fatalf("Mass = %.17g, want %.17g", got, want)
	}
	// RV 1's mass clamps to 1 and adds no term.
	s, c := twoSum(0, 0, math.Log(0.5+(0.5-1e-10)))
	s, c = twoSum(s, c, math.Log(1-2e-10))
	if l.logS != s || l.logC != c {
		t.Fatalf("log G∞ = %.17g + %.17g, want %.17g + %.17g", l.logS, l.logC, s, c)
	}
	if got, want := l.logS+l.logC, math.Log(l.Mass()); math.Abs(got-want) > 1e-15 {
		t.Fatalf("log G∞ = %.17g, log Mass = %.17g", got, want)
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

// deficitRV returns an RV over vals whose probabilities follow weights and
// sum to 1 − δ with δ = 0.99·ProbSumTol, the largest deficit Validate
// accepts: each such RV puts a term log F_i(∞) ≠ 0 into log G∞.
func deficitRV(vals, weights []float64) RV {
	r := normalized(vals, weights)
	for j := range r.Probs {
		r.Probs[j] *= 1 - 0.99*ProbSumTol
	}
	return r
}

// TestLogSumFromGInfBitIdentical pins the three entry points to one
// definition of log G(t*): log G∞, then, for each unsettled RV in RV order,
// log F_i(t*) and −log F_i(∞). Deficit RVs (mass 1 − 0.99·ProbSumTol) sit
// before, between and after the unsettled RVs, and the cases include every
// RV settled and none settled. ExpectedMax, ExpectedMaxFlat on the RVs'
// layout and ExpectedMaxMinFlat over the values split at random between
// a and b (a sometimes +Inf, so settled RVs are visited too) must agree by
// Float64bits, and with the enumeration oracle at 1e-12. The fused live set
// must be ExpectedMaxFlat's atom for atom: the compensated sums make the
// value nearly independent of the order the RVs are folded in, so the
// order is pinned where it is made.
func TestLogSumFromGInfBitIdentical(t *testing.T) {
	w := []float64{1, 2, 3}
	cases := []struct {
		name      string
		rvs       []RV
		unsettled int
	}{
		{"deficits-around-unsettled", []RV{
			deficitRV([]float64{0.5, 1.5, 2}, w),
			{Vals: []float64{1, 3}, Probs: []float64{0.25, 0.75}},
			deficitRV([]float64{2, 0.25, 1}, w),
			deficitRV([]float64{2, 4.5, 3}, w),
			{Vals: []float64{2}, Probs: []float64{1}},
			deficitRV([]float64{1.75, 2, 0}, w),
			deficitRV([]float64{0, 6, 2.5}, w),
			deficitRV([]float64{1, 1.5, 0.75}, w),
		}, 3},
		{"all-settled", []RV{
			deficitRV([]float64{0.5, 1.5, 5}, w),
			{Vals: []float64{5}, Probs: []float64{1}},
			deficitRV([]float64{5, 0.25, 1}, w),
			deficitRV([]float64{2, 4.5, 3}, w),
		}, 0},
		{"none-settled", []RV{
			deficitRV([]float64{0, 1.5, 2}, w),
			{Vals: []float64{0, 3}, Probs: []float64{0.25, 0.75}},
			deficitRV([]float64{2, 0, 1}, w),
			deficitRV([]float64{0.25, 0, 3}, w),
		}, 4},
	}
	rng := rand.New(rand.NewSource(174))
	var viaRVs, flat, fused Arena
	for _, tc := range cases {
		want, err := ExpectedMaxNaive(tc.rvs, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got, err := viaRVs.ExpectedMax(tc.rvs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*max(1, math.Abs(want)) {
			t.Fatalf("%s: ExpectedMax %.17g, naive %.17g", tc.name, got, want)
		}
		vals, l := flatten(tc.rvs)
		if f := flat.ExpectedMaxFlat(l, vals); math.Float64bits(f) != math.Float64bits(got) {
			t.Fatalf("%s: ExpectedMaxFlat %.17g, ExpectedMax %.17g", tc.name, f, got)
		}
		if n := countUnsettled(vals, l); n != tc.unsettled {
			t.Fatalf("%s: %d unsettled RVs, want %d", tc.name, n, tc.unsettled)
		}
		for trial := 0; trial < 50; trial++ {
			av, bv := make([]float64, len(vals)), make([]float64, len(vals))
			for f, v := range vals {
				av[f], bv[f] = v, v+1
				switch rng.Intn(3) {
				case 0:
					av[f], bv[f] = math.Inf(1), v
				case 1:
					av[f], bv[f] = v+1, v
				}
			}
			p := newMinPair(av, bv, l.probs, l.offsets)
			f, cut := p.fused(&fused, math.Inf(1))
			if cut || math.Float64bits(f) != math.Float64bits(got) {
				t.Fatalf("%s trial %d: ExpectedMaxMinFlat %.17g (cut %v), ExpectedMax %.17g", tc.name, trial, f, cut, got)
			}
			if !slices.Equal(fused.liveIdx, flat.liveIdx) {
				t.Fatalf("%s trial %d: fused live atoms %v, ExpectedMaxFlat's %v", tc.name, trial, fused.liveIdx, flat.liveIdx)
			}
		}
	}
}

// countUnsettled counts the RVs of l with an atom above t* = max_i min_f vals[f].
func countUnsettled(vals []float64, l *Layout) int {
	tStar := math.Inf(-1)
	for i := range l.full {
		tStar = max(tStar, slices.Min(vals[l.offsets[i]:l.offsets[i+1]]))
	}
	n := 0
	for i := range l.full {
		if slices.Max(vals[l.offsets[i]:l.offsets[i+1]]) > tStar {
			n++
		}
	}
	return n
}

// FuzzExpectedMaxMinFlat checks the fused kernel on up to eight RVs of up to
// four atoms decoded from the fuzz input: quarter-grid values over
// [−32, 32) with ±0 and ties, a sometimes +Inf (the empty base of a
// one-center scan), integer weights 1..256 and each RV's mass skewed
// within ±0.99·ProbSumTol of 1. Disarmed, it must equal ExpectedMaxFlat on
// the materialized minima bit for bit and never cut; armed at cost0 ∈
// {exact, exact ± 1e-9·scale}, it must return the exact bits, or +Inf with
// cut set and only when exact ≥ cost0 − 1e-12·scale.
func FuzzExpectedMaxMinFlat(f *testing.F) {
	f.Add([]byte{2, 1, 4, 8, 100, 3, 0, 12, 5, 200, 127, 16, 9, 128})
	f.Add([]byte{7, 3, 127, 1, 9, 255, 0x80, 4, 4, 60, 1, 1, 1, 0, 3, 2, 2, 2, 10, 12, 12, 12, 80, 4, 0, 0, 3, 127, 127, 9})
	f.Add([]byte{4, 0, 0, 0x80, 1, 0, 0, 0x80, 1, 255, 1, 0x80, 0, 1, 0, 1, 0x80, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		grid := func(b byte) float64 {
			if b == 0x80 {
				return math.Copysign(0, -1)
			}
			return float64(int8(b)) / 4
		}
		var av, bv, probs []float64
		offsets := []int32{0}
		for i, n := 0, 1+int(next())%8; i < n; i++ {
			z := 1 + int(next())%4
			skew := 1 + (float64(next())/127.5-1)*0.99*ProbSumTol
			start, sum := len(probs), 0.0
			for j := 0; j < z; j++ {
				a, b := next(), next()
				va := grid(a)
				if a == 0x7f {
					va = math.Inf(1)
				}
				w := 1 + float64(next())
				av, bv, probs = append(av, va), append(bv, grid(b)), append(probs, w)
				sum += w
			}
			for f := start; f < len(probs); f++ {
				probs[f] = probs[f] / sum * skew
			}
			offsets = append(offsets, int32(len(probs)))
		}
		p := newMinPair(av, bv, probs, offsets)
		var fused, flat Arena
		exact, cut := p.fused(&fused, math.Inf(1))
		if want := flat.ExpectedMaxFlat(p.lay, p.vals); cut || math.Float64bits(exact) != math.Float64bits(want) {
			t.Fatalf("disarmed: ExpectedMaxMinFlat %.17g (cut %v), ExpectedMaxFlat %.17g", exact, cut, want)
		}
		scale := math.Max(1, math.Abs(exact))
		for _, cost0 := range []float64{exact, exact + 1e-9*scale, exact - 1e-9*scale} {
			got, cut := p.fused(&fused, cost0)
			if !cut {
				if math.Float64bits(got) != math.Float64bits(exact) {
					t.Fatalf("cost0 %.17g: armed %.17g, exact %.17g", cost0, got, exact)
				}
				continue
			}
			if !math.IsInf(got, 1) || exact < cost0-1e-12*scale {
				t.Fatalf("cost0 %.17g: cut with %g, exact %.17g", cost0, got, exact)
			}
		}
	})
}
