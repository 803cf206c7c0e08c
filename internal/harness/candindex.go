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

// RunR4 records the prune-rate and speed of the pruned swap scan behind
// DESIGN.md §11 — the harness counterpart of BenchmarkCandIndexScan. One
// fixed instance is solved with the unpruned scan (the reference), then
// with pruning. The recorded axes per setting: per-solve time, prune rate
// (fraction of scan entries the t*·G∞ bound skipped), and cost ratio
// against the unpruned trajectory.
//
// The invariant checked for Pass: the pruned run's centers cost exactly
// the unpruned run's (bit-identical trajectories — the safety claim).
func RunR4(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 900))
	rep := &Report{ID: "R4", Description: "pruned swap scan — prune rate and speed vs the unpruned scan", Pass: true}

	n, k := 300, 6
	if cfg.Quick {
		n, k = 100, 4
	}
	pts, err := gen.GaussianClusters(rng, n, 3, 2, 5, 1, 0.4)
	if err != nil {
		return nil, err
	}

	tab := &Table{
		Title:  fmt.Sprintf("pruned swap scan (n=%d, m=%d, k=%d): unpruned vs pruned", n, 3*n, k),
		Header: []string{"mode", "ms/solve", "speedup", "prune rate", "cost ratio"},
	}
	var exactCost float64
	var exactDur time.Duration
	for _, disablePrune := range []bool{true, false} {
		tally := &pruneTally{}
		ctx := obs.NewContext(cfg.context(), tally)
		// A fresh compile per setting: each run pays its own evaluator
		// build, so the timings answer "what does pruning save end to end".
		c, err := core.Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
			Parallelism:  cfg.Parallelism,
			DisablePrune: disablePrune,
		})
		dur := time.Since(t0)
		if err != nil {
			return nil, err
		}
		mode := "prune"
		if disablePrune {
			mode = "off"
			exactCost, exactDur = cost, dur
		} else if cost != exactCost {
			rep.Pass = false
		}
		tab.Addf(mode, float64(dur.Microseconds())/1000,
			float64(exactDur.Microseconds())/float64(dur.Microseconds()), tally.rate(), cost/exactCost)
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"invariant: the prune row's cost ratio is exactly 1 (bit-identical trajectory)",
		"prune rate: share of the scanned candidates the t*·G∞ bound skipped",
		"make bench-index measures the same axes on the n=m=1000 acceptance instance")
	return rep, nil
}
