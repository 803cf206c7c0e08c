package serve_test

// The candidate index under the serving layer: per-request mode selection,
// bit-identical pruned trajectories across forced cache eviction (every
// completed request on a 1-byte budget drops the index, so each solve
// rebuilds it), and the prune counters' path from ls.prune spans through
// Metrics into Collect.

import (
	"context"
	"fmt"
	"testing"

	ukc "repro"
	"repro/internal/core"
	"repro/serve"
)

func TestServeCandidateIndexUnderEviction(t *testing.T) {
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(50))
	insts := testInstances(t, 2)
	const k = 3
	ctx := context.Background()

	// Direct reference on the oracle path, before any serving traffic.
	type ref struct {
		centers []ukc.Vec
		cost    float64
	}
	want := make([]ref, len(insts))
	for i, inst := range insts {
		centers, cost, err := solver.SolveUnassignedMode(ctx, inst, k, core.CandIndexOff)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref{centers, cost}
	}

	// 1-byte budget: no cache survives a request, so every pruned solve
	// rebuilds evaluator and index from scratch — the post-eviction rebuild
	// must land on the same trajectory every time.
	srv := newTestServer(t, solver, insts, serve.WithCacheBudget(1))
	for round := 0; round < 3; round++ {
		for i := range insts {
			name := fmt.Sprintf("inst-%d", i)
			for _, mode := range []ukc.CandidateIndexMode{ukc.CandIndexDefault, ukc.CandIndexPrune, core.CandIndexOff} {
				resp, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: name, K: k, Index: mode})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Ecost != want[i].cost || !sameVecs(resp.Centers, want[i].centers) {
					t.Fatalf("round %d %s mode %v: diverged from oracle (cost %g vs %g)",
						round, name, mode, resp.Ecost, want[i].cost)
				}
			}
		}
	}

	// The pruned requests above must have fed the shard counters...
	m := srv.Metrics()
	tot := m.Totals()
	if tot.PruneScanned == 0 || tot.PrunePruned == 0 {
		t.Fatalf("prune counters empty after pruned traffic: scanned=%d pruned=%d",
			tot.PruneScanned, tot.PrunePruned)
	}
	if r := tot.PruneRate(); r <= 0 || r > 1 {
		t.Fatalf("PruneRate = %v, want in (0, 1]", r)
	}

	// ...and Collect must expose them under ukc_serve_prune_total.
	var scanned, pruned float64
	srv.Collect(func(name string, labels map[string]string, value float64) {
		if name != "ukc_serve_prune_total" {
			return
		}
		switch labels["event"] {
		case "scanned":
			scanned += value
		case "pruned":
			pruned += value
		}
	})
	if scanned != float64(tot.PruneScanned) || pruned != float64(tot.PrunePruned) {
		t.Fatalf("Collect prune_total (%v, %v) != Metrics totals (%d, %d)",
			scanned, pruned, tot.PruneScanned, tot.PrunePruned)
	}
}
