package onedim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

func mk1D(t *testing.T, locs []float64, probs []float64) uncertain.Point[geom.Vec] {
	t.Helper()
	vs := make([]geom.Vec, len(locs))
	for i, x := range locs {
		vs[i] = geom.Vec{x}
	}
	p, err := uncertain.New(vs, probs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// compile1D compiles a 1D point set, failing the test on error.
func compile1D(t *testing.T, pts []uncertain.Point[geom.Vec]) *core.Compiled[geom.Vec] {
	t.Helper()
	c, err := core.Compile[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExpDistEval(t *testing.T) {
	p := mk1D(t, []float64{0, 10}, []float64{0.5, 0.5})
	f, err := newExpDist(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0, 5}, {10, 5}, {5, 5}, {-2, 7}, {12, 7}, {2, 5},
	}
	for _, c := range cases {
		if got := f.eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("f(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if math.Abs(f.minVal-5) > 1e-12 {
		t.Errorf("minVal = %g, want 5", f.minVal)
	}
}

func TestExpDistEvalAsymmetric(t *testing.T) {
	p := mk1D(t, []float64{0, 10}, []float64{0.9, 0.1})
	f, err := newExpDist(p)
	if err != nil {
		t.Fatal(err)
	}
	// Minimizer is the heavy location (weighted median): f(0) = 1.
	if math.Abs(f.minX-0) > 1e-12 || math.Abs(f.minVal-1) > 1e-12 {
		t.Errorf("min at (%g, %g), want (0, 1)", f.minX, f.minVal)
	}
}

func TestLevelInterval(t *testing.T) {
	p := mk1D(t, []float64{0, 10}, []float64{0.5, 0.5})
	f, err := newExpDist(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.levelInterval(4.9); ok {
		t.Error("level below the minimum reported nonempty")
	}
	lo, hi, ok := f.levelInterval(7)
	if !ok {
		t.Fatal("level 7 reported empty")
	}
	// f(x) = 7 at x = −2 and x = 12.
	if math.Abs(lo+2) > 1e-9 || math.Abs(hi-12) > 1e-9 {
		t.Errorf("interval = [%g, %g], want [−2, 12]", lo, hi)
	}
	// At exactly the minimum the interval is the flat segment [0, 10].
	lo, hi, ok = f.levelInterval(5)
	if !ok {
		t.Fatal("level 5 reported empty")
	}
	if math.Abs(lo-0) > 1e-9 || math.Abs(hi-10) > 1e-9 {
		t.Errorf("interval = [%g, %g], want [0, 10]", lo, hi)
	}
}

func TestLevelIntervalContainsOnlyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		z := 1 + rng.Intn(5)
		locs := make([]float64, z)
		probs := make([]float64, z)
		var sum float64
		for j := range locs {
			locs[j] = rng.NormFloat64() * 10
			probs[j] = rng.Float64() + 0.05
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		p := mk1D(t, locs, probs)
		f, err := newExpDist(p)
		if err != nil {
			t.Fatal(err)
		}
		tLevel := f.minVal * (1 + rng.Float64())
		lo, hi, ok := f.levelInterval(tLevel)
		if !ok {
			t.Fatal("level above minimum reported empty")
		}
		// Endpoints sit on the level (or at breakpoints below it).
		if f.eval(lo) > tLevel+1e-9 || f.eval(hi) > tLevel+1e-9 {
			t.Fatalf("trial %d: endpoint above level: f(lo)=%g f(hi)=%g level=%g",
				trial, f.eval(lo), f.eval(hi), tLevel)
		}
		// Just outside must exceed the level.
		d := 1e-6 * (1 + math.Abs(hi-lo))
		if f.eval(lo-d) < tLevel-1e-9 || f.eval(hi+d) < tLevel-1e-9 {
			t.Fatalf("trial %d: point outside interval is feasible", trial)
		}
	}
}

func TestSolveSingleCluster(t *testing.T) {
	// Two certain points at 0 and 10 with k=1: optimal max-of-expectations
	// cost is 5 (center at the midpoint).
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{0}),
		uncertain.NewDeterministic(geom.Vec{10}),
	}
	res, err := Solve(pts, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-5) > 1e-6 {
		t.Errorf("cost = %g, want 5", res.Cost)
	}
	if len(res.Centers) != 1 || math.Abs(res.Centers[0]-5) > 1e-6 {
		t.Errorf("centers = %v, want [5]", res.Centers)
	}
}

func TestSolveTwoClusters(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{0}),
		uncertain.NewDeterministic(geom.Vec{1}),
		uncertain.NewDeterministic(geom.Vec{100}),
		uncertain.NewDeterministic(geom.Vec{101}),
	}
	res, err := Solve(pts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-0.5) > 1e-6 {
		t.Errorf("cost = %g, want 0.5", res.Cost)
	}
}

func TestSolveZeroCost(t *testing.T) {
	// k ≥ distinct medians: every point has a zero-expected-distance center
	// only if it is deterministic.
	pts := []uncertain.Point[geom.Vec]{
		uncertain.NewDeterministic(geom.Vec{3}),
		uncertain.NewDeterministic(geom.Vec{7}),
	}
	res, err := Solve(pts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %g, want 0", res.Cost)
	}
	if res.Cert.Gap != 0 {
		t.Errorf("gap = %g, want 0", res.Cert.Gap)
	}
}

func TestSolveUncertainFloor(t *testing.T) {
	// A single bimodal point with k=5: cost cannot drop below its own
	// minimum expected distance (5 for a fair 0/10 split).
	pts := []uncertain.Point[geom.Vec]{mk1D(t, []float64{0, 10}, []float64{0.5, 0.5})}
	res, err := Solve(pts, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-5) > 1e-6 {
		t.Errorf("cost = %g, want 5 (irreducible uncertainty)", res.Cost)
	}
}

func TestSolveValidation(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{uncertain.NewDeterministic(geom.Vec{0})}
	if _, err := Solve(nil, 1, 0); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Solve(pts, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	bad := []uncertain.Point[geom.Vec]{uncertain.NewDeterministic(geom.Vec{0, 0})}
	if _, err := Solve(bad, 1, 0); err == nil {
		t.Error("2D point accepted by 1D solver")
	}
}

// TestSolveMatchesGridBruteForce cross-checks the certified solver against a
// dense grid search on random small instances.
func TestSolveMatchesGridBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		z := 1 + rng.Intn(3)
		pts, err := gen.Mixture1D(rng, n, z, 2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		res, err := Solve(pts, k, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		// Dense grid reference for the max-of-expectations objective.
		grid := denseGridOpt(t, pts, k, 400)
		// The grid optimum is an upper bound on the true optimum (restricted
		// centers); the solver must not exceed it by more than the grid
		// resolution effect, and must be ≥ its certified lower bound.
		if res.Cost > grid+1e-6*(1+grid) {
			t.Fatalf("trial %d: Solve %g worse than grid %g", trial, res.Cost, grid)
		}
		if res.Cost < res.Cert.Lower-1e-9 {
			t.Fatalf("trial %d: cost below own certificate", trial)
		}
	}
}

// denseGridOpt brute-forces max-of-expectations over grid center positions.
func denseGridOpt(t *testing.T, pts []uncertain.Point[geom.Vec], k, steps int) float64 {
	t.Helper()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		for _, l := range p.Locs {
			lo = math.Min(lo, l[0])
			hi = math.Max(hi, l[0])
		}
	}
	if lo == hi {
		return 0
	}
	grid := make([]float64, steps+1)
	for i := range grid {
		grid[i] = lo + (hi-lo)*float64(i)/float64(steps)
	}
	c := compile1D(t, pts)
	best := math.Inf(1)
	idx := make([]int, k)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == k {
			centers := make([]geom.Vec, k)
			for i, g := range idx {
				centers[i] = geom.Vec{grid[g]}
			}
			cost, err := c.MaxExpCostUnassigned(centers)
			if err != nil {
				t.Fatal(err)
			}
			if cost < best {
				best = cost
			}
			return
		}
		for g := from; g < len(grid); g++ {
			idx[pos] = g
			rec(pos+1, g)
		}
	}
	if k == 1 {
		for g := range grid {
			cost, err := c.MaxExpCostUnassigned([]geom.Vec{{grid[g]}})
			if err != nil {
				t.Fatal(err)
			}
			if cost < best {
				best = cost
			}
		}
		return best
	}
	rec(0, 0)
	return best
}

func TestSolveEmaxCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		pts, err := gen.Mixture1D(rng, 2+rng.Intn(4), 1+rng.Intn(3), 2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		res, err := SolveEmax(pts, k, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Centers) == 0 || len(res.Centers) > k {
			t.Fatalf("centers = %v", res.Centers)
		}
		if res.Cost < res.Cert.Lower-1e-9 {
			t.Fatalf("trial %d: Emax cost %g below its lower bound %g",
				trial, res.Cost, res.Cert.Lower)
		}
		// Reported cost must match an independent ED-assignment evaluation.
		ctx := context.Background()
		c := compile1D(t, pts)
		centers := toVecs(res.Centers)
		assign, err := core.AssignCompiled(ctx, c, centers, core.RuleED, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		ec, err := c.EcostAssigned(ctx, centers, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ec-res.Cost) > 1e-6*(1+ec) {
			t.Fatalf("trial %d: reported %g, recomputed %g", trial, res.Cost, ec)
		}
	}
}

func TestSolveEmaxDegenerate(t *testing.T) {
	p := uncertain.NewDeterministic(geom.Vec{4})
	res, err := SolveEmax([]uncertain.Point[geom.Vec]{p, p}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %g, want 0", res.Cost)
	}
}

// TestEvaluatorsValidate pins the "no centers" errors of the two
// objectives the tests above evaluate on a compiled 1D instance.
func TestEvaluatorsValidate(t *testing.T) {
	c := compile1D(t, []uncertain.Point[geom.Vec]{uncertain.NewDeterministic(geom.Vec{0})})
	if _, err := c.MaxExpCostUnassigned(nil); err == nil {
		t.Error("no centers accepted")
	}
	if _, err := c.EcostAssigned(context.Background(), nil, []int{0}, 1); err == nil {
		t.Error("no centers accepted")
	}
}

func BenchmarkSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 1000} {
		pts, err := gen.Mixture1D(rng, n, 5, 4, 1.5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(pts, 4, 1e-9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
