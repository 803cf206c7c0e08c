package serve_test

// The pruned swap scan under the serving layer: bit-identical trajectories
// across forced cache eviction (every completed request on a 1-byte budget
// drops the evaluator, so each solve rebuilds it), and the prune counters'
// path from ls.prune spans through Metrics into Collect.

import (
	"context"
	"fmt"
	"testing"

	ukc "repro"
	"repro/serve"
)

func TestServeCandidateIndexUnderEviction(t *testing.T) {
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(50))
	oracle := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(50), ukc.WithSwapCache(false))
	insts := testInstances(t, 2)
	const k = 3
	ctx := context.Background()

	// Direct reference on the from-scratch oracle path, before any serving
	// traffic.
	type ref struct {
		centers []ukc.Vec
		cost    float64
	}
	want := make([]ref, len(insts))
	for i, inst := range insts {
		centers, cost, err := oracle.SolveUnassigned(ctx, inst, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref{centers, cost}
	}

	// 1-byte budget: no cache survives a request, so every pruned solve
	// rebuilds the evaluator from scratch — the post-eviction rebuild must
	// land on the same trajectory every time.
	srv := newTestServer(t, solver, insts, serve.WithCacheBudget(1))
	for round := 0; round < 3; round++ {
		for i := range insts {
			name := fmt.Sprintf("inst-%d", i)
			resp, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: name, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Ecost != want[i].cost || !sameVecs(resp.Centers, want[i].centers) {
				t.Fatalf("round %d %s: diverged from oracle (cost %g vs %g)",
					round, name, resp.Ecost, want[i].cost)
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
