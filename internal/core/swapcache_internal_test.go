package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// lineEvaluator compiles a random instance on a 24-vertex path metric,
// d(a, b) = |a − b| — integer distances, so many atoms tie in every column
// and every base — and builds its evaluator over every vertex.
func lineEvaluator(t testing.TB, rng *rand.Rand, workers int) (*Compiled[int], *SwapEvaluator[int]) {
	t.Helper()
	vecs := make([]geom.Vec, 24)
	for i := range vecs {
		vecs[i] = geom.Vec{float64(i)}
	}
	space := metricspace.FromPoints[geom.Vec](metricspace.Euclidean{}, vecs)
	pts, err := gen.OnVertices(rng, space, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(context.Background(), space, pts, space.Points())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.Evaluator(context.Background(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return c, ev
}

// TestSwapEvaluatorMatchesEcostUnassignedBitExact pins every cached swap
// cost to the from-scratch Compiled.EcostUnassigned of the same center set,
// bit for bit, on a tie-heavy metric, for k ∈ {1, 3} and sequential and
// parallel builds: both hand the sweep the same per-atom distances.
func TestSwapEvaluatorMatchesEcostUnassignedBitExact(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(141))
	for _, workers := range []int{1, 4} {
		for _, k := range []int{1, 3} {
			c, ev := lineEvaluator(t, rng, workers)
			cands := c.CandidatesOrLocations()
			base, s := new(SwapBase), new(SwapScratch)
			chosen := rng.Perm(len(cands))[:k]
			centers := make([]int, k)
			for i, ch := range chosen {
				centers[i] = cands[ch]
			}
			for pos := range chosen {
				ev.PrepareBase(base, chosen, pos)
				for cd := range cands {
					centers[pos] = cands[cd]
					want, err := c.EcostUnassigned(ctx, centers, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got := ev.EvalSwap(base, s, cd); got != want {
						t.Fatalf("workers=%d k=%d pos %d cand %d: EvalSwap %.17g != EcostUnassigned %.17g",
							workers, k, pos, cd, got, want)
					}
				}
				centers[pos] = cands[chosen[pos]]
			}
		}
	}
}

// allocCase is one evaluator path the allocation pins cover.
type allocCase struct {
	name  string
	check func(t *testing.T)
}

// allocCases returns the pins' four evaluator paths: the planar and d = 3
// Euclidean loops over the coordinate column, the finite-matrix loop, and
// the Space.Dist loop of a DistFunc, each through pin.
func allocCases(t *testing.T, rng *rand.Rand, pin func(t *testing.T, ev scanEvaluator)) []allocCase {
	euclid := func(d int, space metricspace.Space[geom.Vec]) func(t *testing.T) {
		return func(t *testing.T) {
			pts, err := gen.GaussianClusters(rng, 30, 4, d, 3, 1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(context.Background(), space, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := c.Evaluator(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			pin(t, ev)
		}
	}
	return []allocCase{
		{"planar", euclid(2, metricspace.Euclidean{})},
		{"d=3", euclid(3, metricspace.Euclidean{})},
		{"finite", func(t *testing.T) {
			_, ev := lineEvaluator(t, rng, 1)
			pin(t, ev)
		}},
		{"DistFunc", euclid(2, metricspace.DistFunc[geom.Vec](geom.Dist))},
	}
}

// scanEvaluator is the part of a SwapEvaluator[P] the allocation pins
// drive, whatever P is.
type scanEvaluator interface {
	PrepareBase(b *SwapBase, chosen []int, pos int)
	SetThreshold(b *SwapBase, cost0 float64)
	EvalSwap(b *SwapBase, s *SwapScratch, c int) float64
	numCandidates() int
}

func (e *SwapEvaluator[P]) numCandidates() int { return len(e.cands) }

// TestPrepareBaseAllocs pins a steady-state PrepareBase allocation-free on
// every evaluator path.
func TestPrepareBaseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for _, tc := range allocCases(t, rng, func(t *testing.T, ev scanEvaluator) {
		base := new(SwapBase)
		chosen := rng.Perm(ev.numCandidates())[:4]
		ev.PrepareBase(base, chosen, 0)
		pos := 0
		allocs := testing.AllocsPerRun(100, func() {
			pos = (pos + 1) % len(chosen)
			ev.PrepareBase(base, chosen, pos)
		})
		if allocs != 0 {
			t.Fatalf("steady-state PrepareBase allocates %v times per call, want 0", allocs)
		}
	}) {
		t.Run(tc.name, tc.check)
	}
}

// TestEvalSwapAllocs pins a warmed EvalSwap allocation-free across a whole
// candidate scan on every evaluator path, unbounded and with SetThreshold
// armed at the median swap cost of a two-center set (so the scan both
// prunes and evaluates):
// the sweep arena, its sort scratch and atom buffer are reused, and the
// per-point atom callback does not escape.
func TestEvalSwapAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	for _, tc := range allocCases(t, rng, func(t *testing.T, ev scanEvaluator) {
		base, s := new(SwapBase), new(SwapScratch)
		m := ev.numCandidates()
		chosen := rng.Perm(m)[:2]
		ev.PrepareBase(base, chosen, 0)
		costs := make([]float64, m)
		for cd := range m {
			costs[cd] = ev.EvalSwap(base, s, cd)
		}
		slices.Sort(costs)
		cost0 := costs[m/2]
		for _, bounded := range []bool{false, true} {
			if bounded {
				ev.SetThreshold(base, cost0)
			}
			pruned := 0
			for cd := range m {
				if math.IsInf(ev.EvalSwap(base, s, cd), 1) {
					pruned++
				}
			}
			if bounded != (pruned > 0) || pruned == m {
				t.Fatalf("bounded=%v: %d of %d candidates pruned", bounded, pruned, m)
			}
			cd := 0
			allocs := testing.AllocsPerRun(100, func() {
				cd = (cd + 1) % m
				ev.EvalSwap(base, s, cd)
			})
			if allocs != 0 {
				t.Fatalf("bounded=%v: warm EvalSwap allocates %v times per call, want 0", bounded, allocs)
			}
		}
	}) {
		t.Run(tc.name, tc.check)
	}
}

// TestEvalSwapOverflowIsNotExcess pins the excess count to the fold's own
// cut: a finite coordinate of 1e200 puts an atom at distance +Inf, so the
// candidate's exact cost is +Inf while the certificate's expression is NaN.
// The armed scan returns that +Inf from the sweep and must not count it as
// an expected-excess skip.
func TestEvalSwapOverflowIsNotExcess(t *testing.T) {
	pts := []uncertain.Point[geom.Vec]{{Locs: []geom.Vec{{0, 0}, {1e200, 0}}, Probs: []float64{0.5, 0.5}}}
	c, err := Compile[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.Evaluator(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base, s := new(SwapBase), new(SwapScratch)
	ev.PrepareBase(base, []int{0}, 0)
	ev.SetThreshold(base, 5)
	if got := ev.EvalSwap(base, s, 0); !math.IsInf(got, 1) {
		t.Fatalf("EvalSwap = %g, want +Inf", got)
	}
	if s.excess != 0 {
		t.Fatalf("excess = %d after an exact +Inf, want 0", s.excess)
	}
}
