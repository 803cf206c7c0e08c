// Serving: run a sharded serve.Server over several compiled instances —
// the production-shaped layer above Instance/Solver. Registration
// compiles (and therefore validates) each instance once; concurrent
// requests then share the compiled arena and the memoized caches, with
// admission control, per-request deadlines and a byte-budget LRU keeping
// memory bounded.
//
//	go run ./examples/serving
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	ukc "repro"
	"repro/internal/gen"
	"repro/serve"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))

	// A 2-shard server: each shard has its own worker pool, bounded queue
	// and its own full cache budget (a process-wide ceiling of S × budget),
	// so one hot instance cannot stall the rest. The caches are surrogate
	// slices, 40 bytes per point here, and the 8 KiB per-shard budget is
	// deliberately tight: it holds about two instances' worth — watch the
	// eviction counters below.
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(4))
	srv, err := serve.New(solver,
		serve.WithShards(2),
		serve.WithWorkersPerShard(2),
		serve.WithQueueDepth(128),
		serve.WithCacheBudget(8<<10),
		serve.WithDefaultDeadline(5*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Register a small fleet of instances ("sensor grids" of different
	// sizes). Register compiles: an invalid model is rejected here, never
	// at request time.
	for i := 0; i < 6; i++ {
		pts, err := gen.GaussianClusters(rng, 60+20*i, 4, 2, 3, 1, 0.4)
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("grid-%d", i)
		if err := srv.Register(ctx, name, ukc.NewEuclideanInstance(pts)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("registered:", srv.Names())

	// Mixed concurrent traffic: full pipeline solves, exact cost queries
	// and the unassigned local search, from 8 client goroutines.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var solves, costs, rejected int
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				name := fmt.Sprintf("grid-%d", (g+i)%6)
				var err error
				if i%3 == 0 {
					var resp serve.SolveResponse[ukc.Vec]
					resp, err = srv.Solve(ctx, serve.SolveRequest{Instance: name, K: 3})
					if err == nil {
						mu.Lock()
						solves++
						mu.Unlock()
						_ = resp.Result.Ecost
					}
				} else {
					var resp serve.EcostResponse
					resp, err = srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{
						Instance: name,
						Centers:  []ukc.Vec{{0, 0}, {3, 3}, {-2, 4}},
					})
					if err == nil {
						mu.Lock()
						costs++
						mu.Unlock()
						_ = resp.Ecost
					}
				}
				if errors.Is(err, serve.ErrOverloaded) {
					// Admission control sheds load instead of queueing
					// unboundedly; a real client would back off and retry.
					mu.Lock()
					rejected++
					mu.Unlock()
				} else if err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	fmt.Printf("traffic: %d solves, %d cost queries, %d shed by admission control\n", solves, costs, rejected)

	// A request-level deadline: this one is allowed 1ns, so it fails with
	// context.DeadlineExceeded — without poisoning the shard.
	_, err = srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "grid-0", K: 3, Deadline: time.Nanosecond})
	fmt.Printf("1ns-deadline request: %v\n", err)

	// The unassigned local search keeps no distance table: it computes
	// candidate distances where it reads them, and caches only its seeds'
	// 1-center surrogates. The budget may evict them after the request
	// completes; the answer is unaffected, and a repeat rebuilds lazily.
	before := srv.Metrics().Totals()
	un, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "grid-0", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	after := srv.Metrics().Totals()
	fmt.Printf("unassigned solve on grid-0: ecost %.4f (evictions during the request: %d)\n", un.Ecost, after.Evictions-before.Evictions)

	// The metrics snapshot: queue occupancy, cache accounting against the
	// budget, warm-cache hit rate and the end-to-end latency histogram's
	// p50, per shard; the totals merge the shards' histograms bucket-wise.
	for _, m := range srv.Metrics().Shards {
		fmt.Printf("shard %d: %d instances, cache %d/%d bytes, %d completed, hit rate %.2f, %d evictions, p50 %.3fms\n",
			m.Shard, m.Instances, m.CacheBytes, m.CacheBudget, m.Completed, m.HitRate(), m.Evictions, 1000*m.TotalLatency.Quantile(0.5))
	}
	tot := srv.Metrics().Totals()
	fmt.Printf("total: %d completed, %d expired, hit rate %.2f, %d evictions, p50 %.3fms over %d requests\n",
		tot.Completed, tot.Expired, tot.HitRate(), tot.Evictions, 1000*tot.TotalLatency.Quantile(0.5), tot.TotalLatency.Count)
}
