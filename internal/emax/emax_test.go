package emax

import (
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestValidate(t *testing.T) {
	good := RV{Vals: []float64{1, 2}, Probs: []float64{0.5, 0.5}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid RV rejected: %v", err)
	}
	bad := []RV{
		{},
		{Vals: []float64{1}, Probs: []float64{0.5, 0.5}},
		{Vals: []float64{1, 2}, Probs: []float64{0.6, 0.6}},
		{Vals: []float64{1, 2}, Probs: []float64{-0.1, 1.1}},
		{Vals: []float64{math.NaN()}, Probs: []float64{1}},
		{Vals: []float64{math.Inf(1)}, Probs: []float64{1}},
		{Vals: []float64{1}, Probs: []float64{math.NaN()}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad RV %d accepted", i)
		}
	}
}

func TestMean(t *testing.T) {
	r := RV{Vals: []float64{0, 10}, Probs: []float64{0.75, 0.25}}
	if got := r.Mean(); !approxEq(got, 2.5, 1e-12) {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestExpectedMaxSingleRV(t *testing.T) {
	// E[max] of one RV is its mean.
	r := RV{Vals: []float64{1, 3, 7}, Probs: []float64{0.2, 0.3, 0.5}}
	got, err := ExpectedMax([]RV{r})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, r.Mean(), 1e-12) {
		t.Errorf("ExpectedMax = %g, want mean %g", got, r.Mean())
	}
}

func TestExpectedMaxDeterministic(t *testing.T) {
	rvs := []RV{
		{Vals: []float64{2}, Probs: []float64{1}},
		{Vals: []float64{5}, Probs: []float64{1}},
		{Vals: []float64{3}, Probs: []float64{1}},
	}
	got, err := ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, 5, 1e-12) {
		t.Errorf("ExpectedMax = %g, want 5", got)
	}
}

func TestExpectedMaxTwoCoins(t *testing.T) {
	// Two iid uniform{0,1}: max is 1 with prob 3/4 → E = 0.75.
	coin := RV{Vals: []float64{0, 1}, Probs: []float64{0.5, 0.5}}
	got, err := ExpectedMax([]RV{coin, coin})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, 0.75, 1e-12) {
		t.Errorf("ExpectedMax = %g, want 0.75", got)
	}
}

func TestExpectedMaxEmpty(t *testing.T) {
	got, err := ExpectedMax(nil)
	if err != nil || got != 0 {
		t.Errorf("ExpectedMax(nil) = %g, %v", got, err)
	}
}

func TestExpectedMaxInvalidRV(t *testing.T) {
	if _, err := ExpectedMax([]RV{{}}); err == nil {
		t.Error("invalid RV accepted")
	}
}

func TestExpectedMaxNegativeValues(t *testing.T) {
	// The sweep must handle negative supports (G > 0 at negative t).
	rvs := []RV{
		{Vals: []float64{-3, -1}, Probs: []float64{0.5, 0.5}},
		{Vals: []float64{-2}, Probs: []float64{1}},
	}
	want, err := ExpectedMaxNaive(rvs, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, want, 1e-12) {
		t.Errorf("ExpectedMax = %g, naive = %g", got, want)
	}
}

func TestExpectedMaxDuplicateValues(t *testing.T) {
	// Repeated identical support values within and across RVs.
	rvs := []RV{
		{Vals: []float64{1, 1, 2}, Probs: []float64{0.25, 0.25, 0.5}},
		{Vals: []float64{1, 2}, Probs: []float64{0.5, 0.5}},
	}
	want, err := ExpectedMaxNaive(rvs, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, want, 1e-12) {
		t.Errorf("ExpectedMax = %g, naive = %g", got, want)
	}
}

func TestExpectedMaxZeroProbabilityAtoms(t *testing.T) {
	rvs := []RV{
		{Vals: []float64{1, 99}, Probs: []float64{1, 0}},
		{Vals: []float64{0.5}, Probs: []float64{1}},
	}
	got, err := ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, 1, 1e-12) {
		t.Errorf("ExpectedMax = %g, want 1 (zero-prob atom leaked)", got)
	}
}

func TestPropertyExpectedMaxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		rvs := make([]RV, n)
		for i := range rvs {
			z := 1 + rng.Intn(4)
			vals := make([]float64, z)
			probs := make([]float64, z)
			var sum float64
			for j := range vals {
				vals[j] = math.Round(rng.NormFloat64()*100) / 10 // coarse grid → duplicates likely
				probs[j] = rng.Float64() + 0.01
				sum += probs[j]
			}
			for j := range probs {
				probs[j] /= sum
			}
			rvs[i] = RV{Vals: vals, Probs: probs}
		}
		want, err := ExpectedMaxNaive(rvs, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExpectedMax(rvs)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(got, want, 1e-9*(1+math.Abs(want))) {
			t.Fatalf("trial %d: sweep %g vs naive %g", trial, got, want)
		}
	}
}

func TestPropertyExpectedMaxBounds(t *testing.T) {
	// max_i E[X_i] ≤ E[max_i X_i] ≤ Σ_i E[|X_i|] (for non-negative supports,
	// the upper bound Σ E[X_i] holds).
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		rvs := make([]RV, n)
		maxMean, sumMean := math.Inf(-1), 0.0
		for i := range rvs {
			z := 1 + rng.Intn(5)
			vals := make([]float64, z)
			probs := make([]float64, z)
			var sum float64
			for j := range vals {
				vals[j] = rng.Float64() * 10 // non-negative
				probs[j] = rng.Float64() + 0.01
				sum += probs[j]
			}
			for j := range probs {
				probs[j] /= sum
			}
			rvs[i] = RV{Vals: vals, Probs: probs}
			m := rvs[i].Mean()
			if m > maxMean {
				maxMean = m
			}
			sumMean += m
		}
		got, err := ExpectedMax(rvs)
		if err != nil {
			t.Fatal(err)
		}
		if got < maxMean-1e-9 {
			t.Fatalf("E[max] = %g below max of means %g", got, maxMean)
		}
		if got > sumMean+1e-9 {
			t.Fatalf("E[max] = %g above sum of means %g", got, sumMean)
		}
	}
}

func TestExpectedMaxVsMonteCarloLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-check skipped in -short")
	}
	rng := rand.New(rand.NewSource(5))
	n, z := 40, 6
	rvs := make([]RV, n)
	for i := range rvs {
		vals := make([]float64, z)
		probs := make([]float64, z)
		var sum float64
		for j := range vals {
			vals[j] = rng.Float64() * 100
			probs[j] = rng.Float64() + 0.05
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		rvs[i] = RV{Vals: vals, Probs: probs}
	}
	exact, err := ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	mc := MonteCarloMax(rvs, 200000, rng)
	if math.Abs(exact-mc)/exact > 0.01 {
		t.Errorf("exact %g vs Monte-Carlo %g differ by more than 1%%", exact, mc)
	}
}

func TestExpectedMaxNaiveGuards(t *testing.T) {
	r := RV{Vals: []float64{0, 1}, Probs: []float64{0.5, 0.5}}
	rvs := make([]RV, 40)
	for i := range rvs {
		rvs[i] = r
	}
	if _, err := ExpectedMaxNaive(rvs, 1<<20); err == nil {
		t.Error("naive enumeration over 2^40 states accepted")
	}
	if _, err := ExpectedMaxNaive([]RV{{}}, 10); err == nil {
		t.Error("invalid RV accepted")
	}
	if got, err := ExpectedMaxNaive(nil, 10); err != nil || got != 0 {
		t.Errorf("empty naive = %g, %v", got, err)
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := RV{Vals: []float64{1, 2, 3}, Probs: []float64{0.2, 0.3, 0.5}}
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Sample(rng)]++
	}
	for j, v := range r.Vals {
		got := float64(counts[v]) / n
		if math.Abs(got-r.Probs[j]) > 0.01 {
			t.Errorf("P(X=%g) sampled as %g, want %g", v, got, r.Probs[j])
		}
	}
}

func BenchmarkExpectedMax(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []struct{ n, z int }{{10, 5}, {100, 5}, {1000, 10}} {
		rvs := make([]RV, size.n)
		for i := range rvs {
			vals := make([]float64, size.z)
			probs := make([]float64, size.z)
			for j := range vals {
				vals[j] = rng.Float64() * 100
				probs[j] = 1 / float64(size.z)
			}
			rvs[i] = RV{Vals: vals, Probs: probs}
		}
		b.Run(benchName(size.n, size.z), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExpectedMax(rvs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n, z int) string {
	return "n=" + itoa(n) + "/z=" + itoa(z)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// randomRVs draws n RVs on a coarse value grid (duplicates likely) for the
// arena property tests.
func randomRVs(rng *rand.Rand, n int) []RV {
	rvs := make([]RV, n)
	for i := range rvs {
		z := 1 + rng.Intn(5)
		vals := make([]float64, z)
		probs := make([]float64, z)
		var sum float64
		for j := range vals {
			vals[j] = math.Round(rng.NormFloat64()*100) / 10
			probs[j] = rng.Float64() + 0.01
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		rvs[i] = RV{Vals: vals, Probs: probs}
	}
	return rvs
}

// TestArenaExpectedMaxMatches pins the buffer-reusing arena path to the
// package-level ExpectedMax bit-for-bit, reusing one arena across trials so
// stale buffer state would be caught.
func TestArenaExpectedMaxMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	var a Arena
	for trial := 0; trial < 200; trial++ {
		rvs := randomRVs(rng, 1+rng.Intn(8))
		want, err := ExpectedMax(rvs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.ExpectedMax(rvs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: arena %g != package %g", trial, got, want)
		}
	}
}

// TestArenaExpectedMaxValidates: the arena path keeps the validation
// contract of the package-level function.
func TestArenaExpectedMaxValidates(t *testing.T) {
	var a Arena
	if _, err := a.ExpectedMax([]RV{{Vals: []float64{1}, Probs: []float64{0.5}}}); err == nil {
		t.Fatal("invalid RV accepted")
	}
	if got, err := a.ExpectedMax(nil); err != nil || got != 0 {
		t.Fatalf("empty input: got %g, %v", got, err)
	}
}
