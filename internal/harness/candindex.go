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
// pruning, then with the approximate neighborhood scan across a degree
// sweep. The recorded axes per setting: per-solve time, prune rate
// (fraction of scan entries the t*·G∞ bound skipped), and cost ratio
// against the oracle trajectory.
//
// The invariant checked for Pass: the pruned run's centers cost exactly
// the oracle's (bit-identical trajectories — the safety claim); approximate
// runs only record their ratio, which is quality data, not a correctness
// gate.
func RunR4(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 900))
	rep := &Report{ID: "R4", Description: "candidate index — prune-rate and quality/speed curve vs the exact scan", Pass: true}

	n, k := 300, 6
	degreeSweep := []int{4, 8, 16}
	if cfg.Quick {
		n, k = 100, 4
		degreeSweep = []int{4, 8}
	}
	pts, err := gen.GaussianClusters(rng, n, 3, 2, 5, 1, 0.4)
	if err != nil {
		return nil, err
	}

	tab := &Table{
		Title:  fmt.Sprintf("candidate index quality/speed (n=%d, m=%d, k=%d): oracle vs prune vs approx (degree sweep)", n, 3*n, k),
		Header: []string{"mode", "degree", "ms/solve", "speedup", "prune rate", "cost ratio"},
	}
	type setting struct {
		mode   core.CandidateIndexMode
		degree int
	}
	settings := []setting{{core.CandIndexOff, 0}, {core.CandIndexPrune, 0}}
	for _, d := range degreeSweep {
		settings = append(settings, setting{core.CandIndexApprox, d})
	}
	var exactCost float64
	var exactDur time.Duration
	for _, st := range settings {
		tally := &pruneTally{}
		ctx := obs.NewContext(cfg.context(), tally)
		// A fresh compile per setting: each run pays its own index build, so
		// the timings answer "what does this knob cost end to end".
		c, err := core.Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, cost, err := core.SolveUnassignedLSCompiled(ctx, c, k, core.LocalSearchOptions{
			Parallelism:    cfg.Parallelism,
			CandidateIndex: st.mode,
			GraphDegree:    st.degree,
		})
		dur := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if st.mode == core.CandIndexOff {
			exactCost, exactDur = cost, dur
		}
		if st.mode == core.CandIndexPrune && cost != exactCost {
			rep.Pass = false
		}
		deg := "-"
		if st.degree > 0 {
			deg = fmt.Sprint(st.degree)
		}
		tab.Addf(st.mode.String(), deg, float64(dur.Microseconds())/1000,
			float64(exactDur.Microseconds())/float64(dur.Microseconds()), tally.rate(), cost/exactCost)
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"invariant: the prune row's cost ratio is exactly 1 (bit-identical trajectory); approx ratios are recorded, not gated",
		"prune rate: share of the scanned candidates the t*·G∞ bound skipped (approx: inside its neighborhood scan set)",
		"make bench-index measures the same axes on the n=m=1000 acceptance instance")
	return rep, nil
}
