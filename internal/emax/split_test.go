package emax

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// flatten lays rvs out as ExpectedMaxFlat's atom column and layout, in RV
// order.
func flatten(rvs []RV) (vals []float64, l *Layout) {
	var probs []float64
	var rvIdx []int32
	offsets := []int32{0}
	for i, r := range rvs {
		vals = append(vals, r.Vals...)
		probs = append(probs, r.Probs...)
		for range r.Vals {
			rvIdx = append(rvIdx, int32(i))
		}
		offsets = append(offsets, int32(len(vals)))
	}
	return vals, NewLayout(probs, offsets, rvIdx)
}

// normalized returns RV{vals, weights / Σ weights}.
func normalized(vals, weights []float64) RV {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	probs := make([]float64, len(weights))
	for j, w := range weights {
		probs[j] = w / sum
	}
	return RV{Vals: vals, Probs: probs}
}

// bigExpectedMax is the high-precision reference: Σ_t t·(G(t) − G(t⁻)) over
// every distinct value t, with G = Π_i F_i kept as a running product in
// 512-bit arithmetic. Every float64 input is exact at that precision and
// each rounding is ~2⁻⁵¹², so the result is E[max] of the given atoms to
// the last bit of a float64.
func bigExpectedMax(vals, probs []float64, rvIdx []int32, nRVs int) float64 {
	const prec = 512
	num := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	ord := make([]int, len(vals))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(x, y int) bool { return vals[ord[x]] < vals[ord[y]] })
	cdf := make([]*big.Float, nRVs)
	for i := range cdf {
		cdf[i] = num(0)
	}
	zeros := nRVs
	prod, prevG, expected := num(1), num(0), num(0) // prod: Π of the non-zero F_i
	for i := 0; i < len(ord); {
		t := vals[ord[i]]
		for ; i < len(ord) && vals[ord[i]] == t; i++ {
			f := ord[i]
			old := cdf[rvIdx[f]]
			nw := num(0).Add(old, num(probs[f]))
			prod.Mul(prod, nw)
			if old.Sign() == 0 {
				zeros--
			} else {
				prod.Quo(prod, old)
			}
			cdf[rvIdx[f]] = nw
		}
		if zeros == 0 {
			dG := num(0).Sub(prod, prevG)
			expected.Add(expected, dG.Mul(dG, num(t)))
			prevG.Set(prod)
		}
	}
	out, _ := expected.Float64()
	return out
}

// clusteredRVs draws distance RVs the way the unassigned objective makes
// them: n uncertain points around c cluster centers, each RV the distances
// of one point's z jittered locations to the nearest center, with random
// probabilities.
func clusteredRVs(rng *rand.Rand, n, z, c int) []RV {
	centers := make([][2]float64, c)
	for k := range centers {
		centers[k] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	rvs := make([]RV, n)
	for i := range rvs {
		home := centers[rng.Intn(c)]
		bx, by := home[0]+rng.NormFloat64()*5, home[1]+rng.NormFloat64()*5
		vals := make([]float64, z)
		weights := make([]float64, z)
		for j := range vals {
			x, y := bx+rng.NormFloat64(), by+rng.NormFloat64()
			d := math.Inf(1)
			for _, ctr := range centers {
				d = min(d, math.Hypot(x-ctr[0], y-ctr[1]))
			}
			vals[j] = d
			weights[j] = rng.Float64() + 0.01
		}
		rvs[i] = normalized(vals, weights)
	}
	return rvs
}

// tieRVs draws n RVs of z atoms on a coarse quarter grid over [0, 8], so
// values tie within and across RVs, with random probabilities.
func tieRVs(rng *rand.Rand, n, z int) []RV {
	rvs := make([]RV, n)
	for i := range rvs {
		vals := make([]float64, z)
		weights := make([]float64, z)
		for j := range vals {
			vals[j] = float64(rng.Intn(33)) / 4
			weights[j] = rng.Float64() + 0.01
		}
		rvs[i] = normalized(vals, weights)
	}
	return rvs
}

// TestExpectedMaxFlatMatchesBigReference pins the threshold-split kernel
// to the 512-bit reference at 1e-13 relative on clustered distance RVs and
// on tie-heavy grids, with up to hundreds of RVs — enough summation for a
// running log-sum's drift to show. One arena serves every trial.
func TestExpectedMaxFlatMatchesBigReference(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	var a Arena
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		n, z := 50+rng.Intn(350), 2+rng.Intn(7)
		var rvs []RV
		if trial%2 == 0 {
			rvs = clusteredRVs(rng, n, z, 1+rng.Intn(8))
		} else {
			rvs = tieRVs(rng, n, z)
		}
		vals, l := flatten(rvs)
		want := bigExpectedMax(vals, l.probs, l.rvIdx, len(rvs))
		got := a.ExpectedMaxFlat(l, vals)
		rel := math.Abs(got-want) / math.Abs(want)
		worst = max(worst, rel)
		if rel > 1e-13 {
			t.Fatalf("trial %d (n=%d z=%d): ExpectedMaxFlat %.17g, reference %.17g (rel %.3g)",
				trial, n, z, got, want, rel)
		}
	}
	t.Logf("worst relative error %.3g", worst)
}

// wideRVs gives each of n RVs one atom at 0 and z−1 atoms in (0, 10], so
// t* = 0 and the live set holds n·(z−1) atoms.
func wideRVs(rng *rand.Rand, n, z int) []RV {
	rvs := make([]RV, n)
	for i := range rvs {
		vals := make([]float64, z)
		weights := make([]float64, z)
		for j := range vals {
			if j > 0 {
				vals[j] = float64(1+rng.Intn(40)) / 4
			}
			weights[j] = rng.Float64() + 0.01
		}
		rvs[i] = normalized(vals, weights)
	}
	return rvs
}

// TestExpectedMaxFlatEdgeCases checks the split's corner cases against the
// enumeration oracle, through ExpectedMaxFlat and ExpectedMax.
func TestExpectedMaxFlatEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	cases := []struct {
		name string
		rvs  []RV
		live int // atoms above t*
	}{
		{"empty-live-set", []RV{
			{Vals: []float64{1, 2}, Probs: []float64{0.5, 0.5}},
			{Vals: []float64{2}, Probs: []float64{1}},
			{Vals: []float64{0.5, 2, 1.5}, Probs: []float64{0.2, 0.3, 0.5}},
		}, 0},
		{"one-rv", []RV{{Vals: []float64{3, 1, 7, 1}, Probs: []float64{0.1, 0.2, 0.3, 0.4}}}, 2},
		{"all-values-equal", []RV{
			{Vals: []float64{4, 4}, Probs: []float64{0.3, 0.7}},
			{Vals: []float64{4}, Probs: []float64{1}},
		}, 0},
		{"rv-all-at-t*", []RV{
			{Vals: []float64{1, 5, 9}, Probs: []float64{0.5, 0.25, 0.25}},
			{Vals: []float64{3, 3}, Probs: []float64{0.6, 0.4}},
			{Vals: []float64{0, 3, 4}, Probs: []float64{0.2, 0.3, 0.5}},
		}, 3},
		{"negative-values", []RV{
			{Vals: []float64{-3, -1, -0.5}, Probs: []float64{0.5, 0.25, 0.25}},
			{Vals: []float64{-2, -4}, Probs: []float64{0.6, 0.4}},
		}, 3},
		{"live-below-cutoff", wideRVs(rng, 3, 10), 27},
		{"live-above-cutoff", wideRVs(rng, 3, 40), 117},
	}
	var a Arena
	for _, tc := range cases {
		vals, l := flatten(tc.rvs)
		want, err := ExpectedMaxNaive(tc.rvs, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got := a.ExpectedMaxFlat(l, vals)
		if math.Abs(got-want) > 1e-12*max(1, math.Abs(want)) {
			t.Errorf("%s: ExpectedMaxFlat %.17g, naive %.17g", tc.name, got, want)
		}
		if viaRVs, err := a.ExpectedMax(tc.rvs); err != nil || viaRVs != got {
			t.Errorf("%s: ExpectedMax %.17g (%v), ExpectedMaxFlat %.17g", tc.name, viaRVs, err, got)
		}
		if len(a.liveVals) != tc.live {
			t.Errorf("%s: live set of %d atoms, want %d", tc.name, len(a.liveVals), tc.live)
		}
	}
	if got := a.ExpectedMaxFlat(NewLayout(nil, []int32{0}, nil), nil); got != 0 {
		t.Errorf("no atoms: %g, want 0", got)
	}
}

// FuzzExpectedMaxFlat checks ExpectedMaxFlat against the enumeration
// oracle on small RVs decoded from the fuzz input: up to six RVs of up to
// four atoms on a quarter grid over [−32, 32) (ties, duplicates and
// negative values), integer weights 1..256, at 1e-12 relative.
func FuzzExpectedMaxFlat(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 4, 2, 8, 3, 2, 4, 1, 8, 9})
	f.Add([]byte{5, 0, 200, 7, 1, 200, 7, 2, 128, 1, 255, 3, 3, 10, 10, 10, 10, 10, 10, 4, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{1, 3, 16, 1, 240, 2, 16, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		rvs := make([]RV, 1+int(next())%6)
		for i := range rvs {
			z := 1 + int(next())%4
			vals := make([]float64, z)
			weights := make([]float64, z)
			for j := range vals {
				vals[j] = float64(int8(next())) / 4
				weights[j] = 1 + float64(next())
			}
			rvs[i] = normalized(vals, weights)
		}
		want, err := ExpectedMaxNaive(rvs, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		vals, l := flatten(rvs)
		var a Arena
		got := a.ExpectedMaxFlat(l, vals)
		if math.Abs(got-want) > 1e-12*max(1, math.Abs(want)) {
			t.Fatalf("ExpectedMaxFlat %.17g, naive %.17g on %v", got, want, rvs)
		}
	})
}
