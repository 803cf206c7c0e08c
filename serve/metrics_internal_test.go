package serve

import (
	"context"
	"math"
	"testing"
	"time"

	ukc "repro"
)

// TestTotalsPoolShardWindows pins that the cross-shard latency histograms
// are the bucket-wise sums of the shards': nine 1 ms executions (after
// 0.3 ms in the queue) on one shard and one 100 ms execution on the other
// put the merged exec p50 inside the 1 ms bucket, while the slower shard's
// own p50 stays inside the 100 ms bucket. The queue waits put each stage's
// merged p50 in a bucket of its own, so every stage is told apart.
func TestTotalsPoolShardWindows(t *testing.T) {
	s, err := New(ukc.NewSolver[ukc.Vec](), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 9; i++ {
		s.shards[0].lat.observe(300*time.Microsecond, time.Millisecond)
	}
	s.shards[1].lat.observe(0, 100*time.Millisecond)
	m := s.Metrics()
	tot := m.Totals()

	for _, pair := range []struct {
		stage       string
		tot, s0, s1 []uint64
	}{
		{"queue", tot.QueueLatency.Counts, m.Shards[0].QueueLatency.Counts, m.Shards[1].QueueLatency.Counts},
		{"exec", tot.ExecLatency.Counts, m.Shards[0].ExecLatency.Counts, m.Shards[1].ExecLatency.Counts},
		{"total", tot.TotalLatency.Counts, m.Shards[0].TotalLatency.Counts, m.Shards[1].TotalLatency.Counts},
	} {
		for i := range pair.tot {
			if pair.tot[i] != pair.s0[i]+pair.s1[i] {
				t.Fatalf("%s bucket %d: Totals %d, shards %d + %d", pair.stage, i, pair.tot[i], pair.s0[i], pair.s1[i])
			}
		}
	}
	if tot.ExecLatency.Count != 10 || tot.TotalLatency.Count != 10 {
		t.Fatalf("Totals counts exec %d total %d, want 10", tot.ExecLatency.Count, tot.TotalLatency.Count)
	}

	inBucket := func(what string, got, lo, hi float64) {
		t.Helper()
		if !(got > lo && got <= hi) {
			t.Fatalf("%s = %vs, want inside the (%v, %v] bucket", what, got, lo, hi)
		}
	}
	inBucket("Totals queue p50", tot.QueueLatency.Quantile(0.5), 0.0001, 0.0005)
	inBucket("Totals exec p50", tot.ExecLatency.Quantile(0.5), 0.0005, 0.001)
	inBucket("Totals end-to-end p50", tot.TotalLatency.Quantile(0.5), 0.001, 0.005)
	inBucket("shard 1 exec p50", m.Shards[1].ExecLatency.Quantile(0.5), 0.05, 0.1)
}

// TestRetryAfter pins the 429 backoff hint: the 50 ms floor on an idle
// shard, and queue depth × the exec histogram's p50 / workers once a
// backlog builds behind wedged workers.
func TestRetryAfter(t *testing.T) {
	const workers, queued = 2, 3
	ctx := context.Background()
	s, err := New(ukc.NewSolver[ukc.Vec](), WithShards(1), WithWorkersPerShard(workers), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inst := ukc.NewInstance[ukc.Vec](ukc.Euclidean{}, []ukc.Point{{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{1}}}, nil)
	if err := s.Register(ctx, "inst", inst); err != nil {
		t.Fatal(err)
	}
	const floor = 50 * time.Millisecond
	if got := s.RetryAfter("inst"); got != floor {
		t.Fatalf("cold idle shard: RetryAfter = %v, want the %v floor", got, floor)
	}
	// Ten 200 ms executions: all in the (0.1, 0.5] bucket, p50 = 0.3 s.
	for i := 0; i < 10; i++ {
		s.shards[0].lat.observe(0, 200*time.Millisecond)
	}
	if got := s.RetryAfter("inst"); got != floor {
		t.Fatalf("idle shard with history: RetryAfter = %v, want the %v floor", got, floor)
	}

	gate := make(chan struct{})
	started := make(chan struct{}, workers+queued)
	done := make(chan error, workers+queued)
	wedge := func(context.Context, ukc.Instance[ukc.Vec]) (struct{}, error) {
		started <- struct{}{}
		<-gate
		return struct{}{}, nil
	}
	call := func() {
		_, _, err := do(s, ctx, "test", "inst", 0, wedge)
		done <- err
	}
	for i := 0; i < workers; i++ {
		go call()
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	for i := 0; i < queued; i++ {
		go call()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.shards[0].queue) != queued {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("queue depth %d, want %d", len(s.shards[0].queue), queued)
		}
		time.Sleep(time.Millisecond)
	}
	got := s.RetryAfter("inst")
	close(gate)
	for i := 0; i < workers+queued; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := 0.3 * queued / workers // seconds
	if math.Abs(got.Seconds()-want) > 1e-6 {
		t.Fatalf("backlogged shard: RetryAfter = %v, want depth %d × p50 0.3s / %d workers = %vs", got, queued, workers, want)
	}
}
