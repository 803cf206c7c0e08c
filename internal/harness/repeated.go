package harness

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
)

// RunR3 records the amortized-vs-cold repeated-solve curves behind the
// compiled-instance core (DESIGN.md §4a) — the harness counterpart of
// BenchmarkRepeatedSolve: one fixed instance is solved R times with cycling
// k, once through the cold path (a fresh compile per solve — the old
// per-call behavior) and once through the amortized path (compile once,
// share the flat model and the memoized surrogate/evaluator caches). As R
// grows, the amortized per-solve time approaches the k-dependent stages
// alone; the invariant checked is that repeated solving never gets slower
// per solve and that both paths return identical costs (the bit-identity
// the compiled core guarantees).
func RunR3(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 800))
	rep := &Report{ID: "R3", Description: "repeated-solve amortization — compiled vs cold per-solve time", Pass: true}

	n, z := 150, 4
	counts := []int{1, 4, 16, 64}
	if cfg.Quick {
		n = 60
		counts = []int{1, 4, 16}
	}
	pts, err := gen.GaussianClusters(rng, n, z, 2, 4, 1, 0.4)
	if err != nil {
		return nil, err
	}
	ks := []int{2, 4, 8, 6}
	opts := core.Options{
		Surrogate:   core.SurrogateOneCenter,
		Rule:        core.RuleOC,
		Parallelism: cfg.Parallelism,
	}

	// The k-center pipeline: the 1-center surrogate construction dominates
	// the cold path and is memoized on the amortized one.
	kcTab := &Table{
		Title:  "k-center OC pipeline (n=150, z=4): per-solve ms over R repeated solves",
		Header: []string{"R", "cold ms/solve", "amortized ms/solve", "speedup"},
	}
	for _, R := range counts {
		if err := cfg.context().Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var coldCosts []float64
		for i := 0; i < R; i++ {
			res, err := cfg.solveEuclidean(pts, ks[i%len(ks)], core.Options{
				Surrogate: core.SurrogateOneCenter, Rule: core.RuleOC,
			})
			if err != nil {
				return nil, err
			}
			coldCosts = append(coldCosts, res.Ecost)
		}
		cold := time.Since(t0)

		c, err := core.Compile[geom.Vec](cfg.context(), metricspace.Euclidean{}, pts, nil)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		for i := 0; i < R; i++ {
			res, err := core.SolveCompiled(cfg.context(), c, ks[i%len(ks)], opts)
			if err != nil {
				return nil, err
			}
			if res.Ecost != coldCosts[i] {
				rep.Pass = false
			}
		}
		amortized := time.Since(t1)

		coldPer := float64(cold.Microseconds()) / float64(R) / 1000
		amortPer := float64(amortized.Microseconds()) / float64(R) / 1000
		speedup := 0.0
		if amortPer > 0 {
			speedup = coldPer / amortPer
		}
		kcTab.Addf(R, coldPer, amortPer, speedup)
	}
	rep.Tables = append(rep.Tables, kcTab)

	// The unassigned objective: the 8·m·N distance-RV evaluator is the
	// dominant build, paid per solve cold and once per instance amortized.
	unTab := &Table{
		Title:  "unassigned local search (smaller n): per-solve ms over R repeated solves",
		Header: []string{"R", "cold ms/solve", "amortized ms/solve", "speedup"},
	}
	unPts, err := gen.GaussianClusters(rng, 24, 3, 2, 3, 1, 0.4)
	if err != nil {
		return nil, err
	}
	lsOpts := core.LocalSearchOptions{MaxIter: 2, Parallelism: cfg.Parallelism}
	unCounts := counts
	if len(unCounts) > 3 {
		unCounts = unCounts[:3]
	}
	for _, R := range unCounts {
		if err := cfg.context().Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var coldCosts []float64
		for i := 0; i < R; i++ {
			cFresh, err := core.Compile[geom.Vec](cfg.context(), metricspace.Euclidean{}, unPts, nil)
			if err != nil {
				return nil, err
			}
			_, cost, err := core.SolveUnassignedLSCompiled(cfg.context(), cFresh, 2+i%3, lsOpts)
			if err != nil {
				return nil, err
			}
			coldCosts = append(coldCosts, cost)
		}
		cold := time.Since(t0)

		c, err := core.Compile[geom.Vec](cfg.context(), metricspace.Euclidean{}, unPts, nil)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		for i := 0; i < R; i++ {
			_, cost, err := core.SolveUnassignedLSCompiled(cfg.context(), c, 2+i%3, lsOpts)
			if err != nil {
				return nil, err
			}
			if cost != coldCosts[i] {
				rep.Pass = false
			}
		}
		amortized := time.Since(t1)

		coldPer := float64(cold.Microseconds()) / float64(R) / 1000
		amortPer := float64(amortized.Microseconds()) / float64(R) / 1000
		speedup := 0.0
		if amortPer > 0 {
			speedup = coldPer / amortPer
		}
		unTab.Addf(R, coldPer, amortPer, speedup)
	}
	rep.Tables = append(rep.Tables, unTab)
	rep.Notes = append(rep.Notes,
		"invariant: cold and amortized solves return identical costs (compiled-core bit-identity); timings are informational",
		"serving context: serve.Server keeps instances in exactly this amortized regime until byte-budget eviction drops the caches (DESIGN.md §7)")
	return rep, nil
}
