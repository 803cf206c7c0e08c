package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/obs"
)

// pruneTally accumulates ls.prune span counters across solves.
type pruneTally struct {
	mu      sync.Mutex
	scanned int64
	pruned  int64
}

func (p *pruneTally) Span(name, _ string, _ time.Time, _ time.Duration, attrs []obs.Attr) {
	if name != "ls.prune" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range attrs {
		switch a.Key {
		case "scanned":
			p.scanned += a.Val
		case "pruned":
			p.pruned += a.Val
		}
	}
}

func (p *pruneTally) rate() float64 {
	if p.scanned == 0 {
		return 0
	}
	return float64(p.pruned) / float64(p.scanned)
}

// RunR4 records the candidate-index quality/speed curve behind DESIGN.md
// §11 — the harness counterpart of BenchmarkCandIndexScan. One fixed
// instance is solved with the exact oracle (CandIndexOff), then with safe
// pruning across a pivot-count sweep, then with the approximate
// neighborhood scan across a degree sweep. The recorded axes per setting:
// per-solve time, prune rate (fraction of scan entries the pivot bound
// skipped), and cost ratio against the oracle trajectory.
//
// The invariant checked for Pass: every pruned run's centers cost exactly
// the oracle's (bit-identical trajectories for any pivot count — the
// tentpole safety claim); approximate runs only record their ratio, which
// is quality data, not a correctness gate.
func RunR4(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 900))
	rep := &Report{ID: "R4", Description: "candidate index — prune-rate and quality/speed curve vs the exact scan", Pass: true}

	n, k := 300, 6
	pivotSweep := []int{4, 8, 16, 32}
	degreeSweep := []int{4, 8, 16}
	if cfg.Quick {
		n, k = 100, 4
		pivotSweep = []int{4, 16}
		degreeSweep = []int{4, 8}
	}
	pts, err := gen.GaussianClusters(rng, n, 3, 2, 5, 1, 0.4)
	if err != nil {
		return nil, err
	}

	solve := func(mode core.CandidateIndexMode, pivots, degree int, tally *pruneTally) (float64, time.Duration, error) {
		ctx := cfg.context()
		if tally != nil {
			ctx = obs.NewContext(ctx, tally)
		}
		// A fresh compile per setting: each run pays its own index build, so
		// the timings answer "what does this knob cost end to end".
		c, err := core.Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		_, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
			Parallelism:    cfg.Parallelism,
			CandidateIndex: mode,
			IndexPivots:    pivots,
			GraphDegree:    degree,
		})
		return cost, time.Since(t0), err
	}

	exactCost, exactDur, err := solve(core.CandIndexOff, 0, 0, nil)
	if err != nil {
		return nil, err
	}

	tab := &Table{
		Title:  fmt.Sprintf("candidate index quality/speed (n=%d, m=%d, k=%d): oracle vs prune (pivot sweep) vs approx (degree sweep)", n, 3*n, k),
		Header: []string{"mode", "pivots", "degree", "ms/solve", "speedup", "prune rate", "cost ratio"},
	}
	tab.Addf("off", "-", "-", float64(exactDur.Microseconds())/1000, 1.0, 0.0, 1.0)

	for _, p := range pivotSweep {
		if err := cfg.context().Err(); err != nil {
			return nil, err
		}
		tally := &pruneTally{}
		cost, dur, err := solve(core.CandIndexPrune, p, 0, tally)
		if err != nil {
			return nil, err
		}
		if cost != exactCost {
			rep.Pass = false
		}
		tab.Addf("prune", p, "-", float64(dur.Microseconds())/1000,
			float64(exactDur.Microseconds())/float64(dur.Microseconds()), tally.rate(), cost/exactCost)
	}
	for _, d := range degreeSweep {
		if err := cfg.context().Err(); err != nil {
			return nil, err
		}
		cost, dur, err := solve(core.CandIndexApprox, 0, d, nil)
		if err != nil {
			return nil, err
		}
		tab.Addf("approx", "-", d, float64(dur.Microseconds())/1000,
			float64(exactDur.Microseconds())/float64(dur.Microseconds()), 0.0, cost/exactCost)
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"invariant: every prune row's cost ratio is exactly 1 (bit-identical trajectories, any pivot count); approx ratios are recorded, not gated",
		"prune rate grows with pivot count but each pivot costs one exact evaluation per scan position — the sweep shows where the trade turns",
		"make bench-index measures the same axes on the n=m=1000 acceptance instance")
	return rep, nil
}
