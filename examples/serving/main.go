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
	// so one hot instance cannot stall the rest. The 256 KiB per-shard
	// budget is deliberately tight — watch the eviction counters below.
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(4))
	srv, err := serve.New(solver,
		serve.WithShards(2),
		serve.WithWorkersPerShard(2),
		serve.WithQueueDepth(128),
		serve.WithCacheBudget(256<<10),
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

	// The unassigned local search builds the dominant cache: the 8·m·N
	// distance-RV evaluator (~460 KB for grid-0) — well over the 256 KiB
	// budget, so the byte-budget LRU drops caches right after the request
	// completes. The answer is unaffected; a repeat rebuilds lazily.
	un, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "grid-0", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unassigned solve on grid-0: ecost %.4f (evaluator built, then evicted by the budget)\n", un.Ecost)

	// The metrics snapshot: queue occupancy, cache accounting against the
	// budget, warm-cache hit rate and latency quantiles, per shard.
	for _, m := range srv.Metrics().Shards {
		fmt.Printf("shard %d: %d instances, cache %d/%d bytes, %d completed, hit rate %.2f, %d evictions, p50 %v\n",
			m.Shard, m.Instances, m.CacheBytes, m.CacheBudget, m.Completed, m.HitRate(), m.Evictions, m.LatencyP50.Round(10*time.Microsecond))
	}
	tot := srv.Metrics().Totals()
	fmt.Printf("total: %d completed, %d expired, hit rate %.2f, %d evictions\n",
		tot.Completed, tot.Expired, tot.HitRate(), tot.Evictions)
}
