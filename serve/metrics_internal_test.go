package serve

import (
	"testing"
	"time"

	ukc "repro"
)

// TestLatencyRingEmpty pins the no-traffic snapshot: every quantile is zero
// before the first request completes.
func TestLatencyRingEmpty(t *testing.T) {
	var r latencyRing
	q := r.quantiles()
	if q != (latencyQuantiles{}) {
		t.Fatalf("empty ring quantiles = %+v, want all zero", q)
	}
}

// TestLatencyRingSplit checks that queue and execution quantiles are
// computed over their own samples while the end-to-end view is the
// pairwise sum — an anti-correlated load (slow-queue/fast-exec mixed with
// fast-queue/slow-exec) has constant totals but wide component spreads.
func TestLatencyRingSplit(t *testing.T) {
	var r latencyRing
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			r.record(10*time.Millisecond, 90*time.Millisecond)
		} else {
			r.record(90*time.Millisecond, 10*time.Millisecond)
		}
	}
	q := r.quantiles()
	if q.TotalP50 != 100*time.Millisecond || q.TotalP99 != 100*time.Millisecond {
		t.Errorf("total quantiles = %v/%v, want 100ms/100ms", q.TotalP50, q.TotalP99)
	}
	if q.QueueP99 != 90*time.Millisecond || q.ExecP99 != 90*time.Millisecond {
		t.Errorf("component p99 = %v/%v, want 90ms/90ms", q.QueueP99, q.ExecP99)
	}
	if q.QueueP50 != 10*time.Millisecond {
		// 50 samples at 10ms, 50 at 90ms: rank (n-1)*50/100 = 49 lands in
		// the 10ms half.
		t.Errorf("QueueP50 = %v, want 10ms", q.QueueP50)
	}
}

// TestLatencyRingWrap records past the window size and checks old samples
// fall out: after latWindow+500 records, quantiles reflect only the most
// recent latWindow.
func TestLatencyRingWrap(t *testing.T) {
	var r latencyRing
	// 500 poison samples that must be fully overwritten...
	for i := 0; i < 500; i++ {
		r.record(time.Hour, time.Hour)
	}
	// ...by latWindow uniform ones.
	for i := 0; i < latWindow; i++ {
		r.record(time.Millisecond, 2*time.Millisecond)
	}
	q := r.quantiles()
	if q.QueueP99 != time.Millisecond || q.ExecP99 != 2*time.Millisecond || q.TotalP99 != 3*time.Millisecond {
		t.Fatalf("post-wrap p99 = %v/%v/%v, want 1ms/2ms/3ms (old samples leaked)", q.QueueP99, q.ExecP99, q.TotalP99)
	}
	if got := r.n; got != 500+latWindow {
		t.Fatalf("recorded count = %d, want %d", got, 500+latWindow)
	}
}

// TestTotalsPoolShardWindows pins that the cross-shard latency quantiles
// are quantiles of the pooled samples: nine 1 ms executions on one shard
// and one 100 ms execution on the other have a pooled p50 of 1 ms, while
// the slower shard's own p50 is 100 ms.
func TestTotalsPoolShardWindows(t *testing.T) {
	s, err := New(ukc.NewSolver[ukc.Vec](), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 9; i++ {
		s.shards[0].lat.record(0, time.Millisecond)
	}
	s.shards[1].lat.record(0, 100*time.Millisecond)
	m := s.Metrics()
	if got := m.Shards[1].ExecP50; got != 100*time.Millisecond {
		t.Fatalf("shard 1 ExecP50 = %v, want 100ms", got)
	}
	tot := m.Totals()
	if tot.ExecP50 != time.Millisecond || tot.LatencyP50 != time.Millisecond {
		t.Fatalf("Totals ExecP50/LatencyP50 = %v/%v, want the pooled 1ms/1ms", tot.ExecP50, tot.LatencyP50)
	}
}
