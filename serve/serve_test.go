package serve_test

// The serving-layer contract: requests through a sharded server under
// concurrent load — including forced cache eviction — return results
// bit-identical to direct Solver calls; admission control rejects over-queue
// requests with ErrOverloaded; per-request deadlines surface
// context.DeadlineExceeded without poisoning shard state; and the registry
// is race-clean under mixed Register/solve/evict traffic (run with -race via
// make test-race).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	ukc "repro"
	"repro/internal/gen"
	"repro/serve"
)

// testInstances builds n distinct small Euclidean instances.
func testInstances(t testing.TB, n int) []ukc.Instance[ukc.Vec] {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	out := make([]ukc.Instance[ukc.Vec], n)
	for i := range out {
		pts, err := gen.GaussianClusters(rng, 20+i, 3, 2, 3, 1, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ukc.NewEuclideanInstance(pts)
	}
	return out
}

func newTestServer(t testing.TB, solver *ukc.Solver[ukc.Vec], insts []ukc.Instance[ukc.Vec], opts ...serve.Option) *serve.Server[ukc.Vec] {
	t.Helper()
	srv, err := serve.New(solver, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ctx := context.Background()
	for i, inst := range insts {
		if err := srv.Register(ctx, fmt.Sprintf("inst-%d", i), inst); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// directExpected computes the reference answers for every instance and
// workload by calling the solver directly, before any serving traffic.
type expected struct {
	solve      ukc.Result
	unassigned []ukc.Vec
	unassCost  float64
	assign     []int
	ecost      float64
	sweep      [][]float64
}

func directAnswers(t testing.TB, solver *ukc.Solver[ukc.Vec], insts []ukc.Instance[ukc.Vec], k int) []expected {
	t.Helper()
	ctx := context.Background()
	out := make([]expected, len(insts))
	for i, inst := range insts {
		res, err := solver.Solve(ctx, inst, k)
		if err != nil {
			t.Fatal(err)
		}
		centers, cost, err := solver.SolveUnassigned(ctx, inst, k)
		if err != nil {
			t.Fatal(err)
		}
		assign, err := solver.Assign(ctx, inst, res.Centers)
		if err != nil {
			t.Fatal(err)
		}
		ecost, err := solver.Ecost(ctx, inst, res.Centers, assign)
		if err != nil {
			t.Fatal(err)
		}
		sweep, _, err := solver.EcostSweep(ctx, inst, res.Centers)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = expected{solve: res, unassigned: centers, unassCost: cost, assign: assign, ecost: ecost, sweep: sweep}
	}
	return out
}

func sameVecs(a, b []ukc.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeBitIdenticalUnderLoadAndEviction is the acceptance scenario: a
// 3-shard server under 32 concurrent goroutines issuing mixed workloads,
// with a cache budget small enough that eviction fires continuously; every
// response must be bit-identical to the direct Solver call.
func TestServeBitIdenticalUnderLoadAndEviction(t *testing.T) {
	const (
		nInst      = 6
		k          = 3
		goroutines = 32
		perG       = 12
	)
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(3))
	insts := testInstances(t, nInst)
	want := directAnswers(t, solver, insts, k)

	// A one-byte budget can never hold any cache: every completed request
	// evicts, so warm-cache reuse and post-eviction rebuilds interleave
	// aggressively across the whole run.
	srv := newTestServer(t, solver, insts,
		serve.WithShards(3),
		serve.WithWorkersPerShard(2),
		serve.WithQueueDepth(4*goroutines*perG),
		serve.WithCacheBudget(1),
	)

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for it := 0; it < perG; it++ {
				i := rng.Intn(nInst)
				name := fmt.Sprintf("inst-%d", i)
				switch it % 5 {
				case 0:
					resp, err := srv.Solve(ctx, serve.SolveRequest{Instance: name, K: k})
					if err != nil {
						errs <- err
						return
					}
					if resp.Result.Ecost != want[i].solve.Ecost ||
						resp.Result.EcostUnassigned != want[i].solve.EcostUnassigned ||
						!sameVecs(resp.Result.Centers, want[i].solve.Centers) ||
						!sameInts(resp.Result.Assign, want[i].solve.Assign) {
						errs <- fmt.Errorf("Solve(%s) diverged from direct call", name)
						return
					}
				case 1:
					resp, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: name, K: k})
					if err != nil {
						errs <- err
						return
					}
					if resp.Ecost != want[i].unassCost || !sameVecs(resp.Centers, want[i].unassigned) {
						errs <- fmt.Errorf("SolveUnassigned(%s) diverged from direct call", name)
						return
					}
				case 2:
					resp, err := srv.Assign(ctx, serve.AssignRequest[ukc.Vec]{Instance: name, Centers: want[i].solve.Centers})
					if err != nil {
						errs <- err
						return
					}
					if !sameInts(resp.Assign, want[i].assign) {
						errs <- fmt.Errorf("Assign(%s) diverged from direct call", name)
						return
					}
				case 3:
					resp, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: name, Centers: want[i].solve.Centers, Assign: want[i].assign})
					if err != nil {
						errs <- err
						return
					}
					if resp.Ecost != want[i].ecost {
						errs <- fmt.Errorf("Ecost(%s) = %v, want %v", name, resp.Ecost, want[i].ecost)
						return
					}
				case 4:
					resp, err := srv.EcostSweep(ctx, serve.EcostSweepRequest[ukc.Vec]{Instance: name, Centers: want[i].solve.Centers})
					if err != nil {
						errs <- err
						return
					}
					for pos := range want[i].sweep {
						if !sameFloats(resp.Sweep[pos], want[i].sweep[pos]) {
							errs <- fmt.Errorf("EcostSweep(%s) diverged at position %d", name, pos)
							return
						}
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := srv.Metrics().Totals()
	if m.Completed != goroutines*perG {
		t.Fatalf("completed = %d, want %d", m.Completed, goroutines*perG)
	}
	if m.Evictions == 0 {
		t.Fatal("1-byte budget produced no evictions")
	}
	if m.CacheMisses == 0 {
		t.Fatal("no cache misses recorded despite continuous eviction")
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeEvictionThenSolveEqualsNeverEvicted pins the eviction contract
// directly: warm an instance, watch the budget evict its caches to zero
// bytes, and require the post-eviction solve to equal the never-evicted
// reference from an identical undisturbed server.
func TestServeEvictionThenSolveEqualsNeverEvicted(t *testing.T) {
	ctx := context.Background()
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(3))
	insts := testInstances(t, 1)

	ref := newTestServer(t, solver, testInstances(t, 1)) // no budget: never evicts
	refResp, err := ref.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	refAgain, err := ref.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2})
	if err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, solver, insts, serve.WithCacheBudget(1))
	first, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The request built the evaluator, then the budget evicted it.
	if got := srv.Metrics().Totals(); got.Evictions == 0 || got.CacheBytes != 0 {
		t.Fatalf("after first request: evictions=%d cacheBytes=%d, want eviction to zero", got.Evictions, got.CacheBytes)
	}
	c, ok := srv.Get("inst-0")
	if !ok {
		t.Fatal("instance vanished")
	}
	if got := c.CacheBytes(); got != 0 {
		t.Fatalf("compiled CacheBytes = %d after eviction, want 0", got)
	}

	second, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Ecost != refResp.Ecost || !sameVecs(first.Centers, refResp.Centers) {
		t.Fatal("pre-eviction solve differs from never-evicted reference")
	}
	if second.Ecost != refAgain.Ecost || !sameVecs(second.Centers, refAgain.Centers) {
		t.Fatal("post-eviction solve differs from never-evicted reference")
	}
	if second.Stats.CacheHit {
		t.Fatal("post-eviction request reported a warm-cache hit")
	}
}

// gateSpace is a metric over Vec whose every distance call blocks until the
// gate is released — the deterministic way to wedge a shard worker
// mid-request for the admission tests.
type gateSpace struct{ gate chan struct{} }

func (g gateSpace) Dist(a, b ukc.Vec) float64 { <-g.gate; return ukc.Euclidean{}.Dist(a, b) }

// TestServeAdmissionOverload pins admission control: with the single worker
// deterministically wedged mid-request and one more request queued, a third
// must be rejected immediately with ErrOverloaded.
func TestServeAdmissionOverload(t *testing.T) {
	ctx := context.Background()
	solver := ukc.NewSolver[ukc.Vec]()
	gate := make(chan struct{})
	gated := ukc.NewInstance[ukc.Vec](gateSpace{gate}, []ukc.Point{
		{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{1}},
	}, nil)
	srv := newTestServer(t, solver, nil, serve.WithQueueDepth(1), serve.WithWorkersPerShard(1))
	if err := srv.Register(ctx, "gated", gated); err != nil {
		t.Fatal(err)
	}

	waitFor := func(desc string, cond func(serve.ShardMetrics) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(srv.Metrics().Totals()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", desc, srv.Metrics().Totals())
			}
			time.Sleep(time.Millisecond)
		}
	}

	ecost := func(errCh chan<- error) {
		_, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{
			Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0},
		})
		errCh <- err
	}

	// Wedge the worker: the first request blocks inside its metric call.
	wedged := make(chan error, 1)
	go ecost(wedged)
	waitFor("the worker to dequeue the wedge request", func(m serve.ShardMetrics) bool {
		return m.Admitted == 1 && m.QueueDepth == 0
	})

	// Fill the depth-1 queue behind it.
	queued := make(chan error, 1)
	go ecost(queued)
	waitFor("the second request to occupy the queue", func(m serve.ShardMetrics) bool {
		return m.QueueDepth == 1
	})

	// Worker busy + queue full: the next request must bounce, synchronously.
	_, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0}})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := srv.Metrics().Totals().Rejected; got != 1 {
		t.Fatalf("Rejected counter = %d, want 1", got)
	}

	// Release the gate: the wedged and queued requests complete, and the
	// shard serves new traffic — load shedding never poisons it.
	close(gate)
	if err := <-wedged; err != nil {
		t.Fatalf("wedged request: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if _, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0}}); err != nil {
		t.Fatalf("request after overload: %v", err)
	}
}

// TestServeDeadlines pins the deadline contract: an already-expired or
// impossibly tight deadline surfaces context.DeadlineExceeded (whether the
// request dies in the queue or mid-execution), and the shard keeps serving
// correct answers afterwards.
func TestServeDeadlines(t *testing.T) {
	ctx := context.Background()
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(3))
	insts := testInstances(t, 1)
	want := directAnswers(t, solver, insts, 2)
	srv := newTestServer(t, solver, insts, serve.WithWorkersPerShard(1))

	// A nanosecond deadline expires before any worker can pick the task up.
	_, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2, Deadline: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns deadline: err = %v, want context.DeadlineExceeded", err)
	}

	// A caller-context deadline layers the same way.
	cctx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	_, err = srv.Solve(cctx, serve.SolveRequest{Instance: "inst-0", K: 2})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired caller ctx: err = %v, want context.DeadlineExceeded", err)
	}

	// Shard state is not poisoned: the same workload with a sane deadline
	// returns the reference answer.
	resp, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ecost != want[0].unassCost || !sameVecs(resp.Centers, want[0].unassigned) {
		t.Fatal("post-deadline-failure solve diverged from direct call")
	}
	m := srv.Metrics().Totals()
	if m.Expired == 0 && m.Failed == 0 {
		t.Fatalf("deadline failures recorded nowhere: %+v", m)
	}
}

// TestServeDefaultDeadline pins WithDefaultDeadline: requests carrying no
// deadline inherit the server's.
func TestServeDefaultDeadline(t *testing.T) {
	solver := ukc.NewSolver[ukc.Vec]()
	insts := testInstances(t, 1)
	srv := newTestServer(t, solver, insts, serve.WithDefaultDeadline(time.Nanosecond))
	_, err := srv.Solve(context.Background(), serve.SolveRequest{Instance: "inst-0", K: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded from the server default", err)
	}
}

// TestServeRegistry pins the registry API: Register/Get/Names/Unregister,
// duplicate and invalid registrations, and ErrNotFound for requests naming
// unknown instances.
func TestServeRegistry(t *testing.T) {
	ctx := context.Background()
	srv, err := serve.New[ukc.Vec](nil, serve.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	insts := testInstances(t, 3)
	for i, inst := range insts {
		if err := srv.Register(ctx, fmt.Sprintf("inst-%d", i), inst); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Names(); !sameStrings(got, []string{"inst-0", "inst-1", "inst-2"}) {
		t.Fatalf("Names = %v", got)
	}
	if _, ok := srv.Get("inst-1"); !ok {
		t.Fatal("Get(inst-1) missing")
	}
	if _, ok := srv.Get("nope"); ok {
		t.Fatal("Get(nope) found something")
	}

	if err := srv.Register(ctx, "inst-0", insts[0]); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	if err := srv.Register(ctx, "", insts[0]); err == nil {
		t.Fatal("empty name accepted")
	}
	bad := ukc.Instance[ukc.Vec]{Space: ukc.Euclidean{}, Points: []ukc.Point{{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{0.3}}}}
	if err := srv.Register(ctx, "bad", bad); err == nil {
		t.Fatal("invalid instance accepted — Register must validate via compilation")
	}

	_, err = srv.Solve(ctx, serve.SolveRequest{Instance: "ghost", K: 2})
	if !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("unknown instance: err = %v, want ErrNotFound", err)
	}

	if !srv.Unregister("inst-2") {
		t.Fatal("Unregister(inst-2) = false")
	}
	if srv.Unregister("inst-2") {
		t.Fatal("second Unregister(inst-2) = true")
	}
	if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: "inst-2", K: 2}); !errors.Is(err, serve.ErrNotFound) {
		t.Fatal("unregistered instance still served")
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeClose pins shutdown: Close drains in-flight work, later requests
// and registrations fail with ErrClosed, and Close is idempotent.
func TestServeClose(t *testing.T) {
	ctx := context.Background()
	srv, err := serve.New[ukc.Vec](nil)
	if err != nil {
		t.Fatal(err)
	}
	insts := testInstances(t, 1)
	if err := srv.Register(ctx, "inst-0", insts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: "inst-0", K: 2}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: "inst-0", K: 2}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-Close request: err = %v, want ErrClosed", err)
	}
	if err := srv.Register(ctx, "late", insts[0]); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-Close Register: err = %v, want ErrClosed", err)
	}
}

// TestServeMixedRegisterSolveEvict is the race exercise: concurrent
// Register/Unregister churn, solve traffic and continuous eviction on one
// server (meaningful primarily under -race, which make test-race runs).
func TestServeMixedRegisterSolveEvict(t *testing.T) {
	ctx := context.Background()
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(2))
	insts := testInstances(t, 4)
	srv := newTestServer(t, solver, insts,
		serve.WithShards(2),
		serve.WithWorkersPerShard(2),
		serve.WithQueueDepth(256),
		serve.WithCacheBudget(1),
	)

	var wg sync.WaitGroup
	// Churners: register/unregister transient instances.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("transient-%d-%d", g, i)
				if err := srv.Register(ctx, name, insts[i%len(insts)]); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: name, Centers: []ukc.Vec{{0, 0}}}); err != nil && !errors.Is(err, serve.ErrOverloaded) {
					t.Error(err)
					return
				}
				srv.Unregister(name)
			}
		}(g)
	}
	// Solvers: steady mixed traffic over the stable instances.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("inst-%d", (g+i)%len(insts))
				var err error
				if i%2 == 0 {
					_, err = srv.Solve(ctx, serve.SolveRequest{Instance: name, K: 2})
				} else {
					_, err = srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: name, K: 2})
				}
				if err != nil && !errors.Is(err, serve.ErrOverloaded) && !errors.Is(err, serve.ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	m := srv.Metrics()
	if len(m.Shards) != 2 {
		t.Fatalf("%d shard snapshots, want 2", len(m.Shards))
	}
	tot := m.Totals()
	if tot.Completed == 0 || tot.Evictions == 0 {
		t.Fatalf("churn run recorded completed=%d evictions=%d", tot.Completed, tot.Evictions)
	}
	if tot.Instances != 4 {
		t.Fatalf("instances after churn = %d, want the 4 stable ones", tot.Instances)
	}
}

// TestServeMetricsLatency sanity-checks the latency quantiles and hit
// accounting on a quiet server.
func TestServeMetricsLatency(t *testing.T) {
	ctx := context.Background()
	solver := ukc.NewSolver[ukc.Vec]()
	insts := testInstances(t, 1)
	srv := newTestServer(t, solver, insts)
	for i := 0; i < 5; i++ {
		if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: "inst-0", K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics().Shards[0]
	if m.LatencyP50 <= 0 || m.LatencyP99 < m.LatencyP50 {
		t.Fatalf("latency quantiles p50=%v p99=%v", m.LatencyP50, m.LatencyP99)
	}
	// First solve builds the surrogate cache (miss); later ones are hits.
	if m.CacheMisses == 0 || m.CacheHits == 0 {
		t.Fatalf("hit/miss accounting: hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}
	if hr := m.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("HitRate = %v, want strictly between 0 and 1 after 1 miss + 4 hits", hr)
	}
}
