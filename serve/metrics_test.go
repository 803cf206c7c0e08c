package serve_test

// Observability-surface tests: the canceled/failed/expired counter split,
// HitRate edge cases, per-instance cache metrics, and the Collect walk the
// Prometheus endpoint is built on.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	ukc "repro"
	"repro/obs"
	"repro/serve"
)

// waitTotals polls the server until pred holds on the totals snapshot (the
// worker records counters asynchronously after do returns).
func waitTotals(t *testing.T, srv *serve.Server[ukc.Vec], pred func(serve.ShardMetrics) bool) serve.ShardMetrics {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := srv.Metrics().Totals()
		if pred(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never converged: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkLatency asserts that a latency histogram holds exactly the given
// request durations: the DurationBuckets layout, the count, and per bucket
// the number of durations its bounds admit. The durations themselves are
// whatever the machine measured, so only their buckets are pinned.
func checkLatency(t *testing.T, what string, h obs.HistogramSnapshot, durs ...time.Duration) {
	t.Helper()
	if !slices.Equal(h.Bounds, obs.DurationBuckets()) {
		t.Fatalf("%s histogram bounds %v, want obs.DurationBuckets()", what, h.Bounds)
	}
	want := make([]uint64, len(h.Bounds)+1)
	for _, d := range durs {
		i, _ := slices.BinarySearch(h.Bounds, d.Seconds())
		want[i]++
	}
	if h.Count != uint64(len(durs)) || !slices.Equal(h.Counts, want) {
		t.Fatalf("%s histogram: count %d buckets %v, want count %d buckets %v", what, h.Count, h.Counts, len(durs), want)
	}
}

// TestHitRateZeroExecuted pins HitRate on a snapshot with no executed
// requests: 0, not NaN.
func TestHitRateZeroExecuted(t *testing.T) {
	var m serve.ShardMetrics
	if hr := m.HitRate(); hr != 0 {
		t.Fatalf("HitRate with no executed requests = %v, want 0", hr)
	}
}

// TestCanceledSplitsFromFailed drives each terminal outcome once and
// checks it lands in its own counter: a caller-canceled queued request is
// Canceled, a genuine execution error is Failed, a queued deadline expiry
// is Expired — no cross-contamination.
func TestCanceledSplitsFromFailed(t *testing.T) {
	insts := testInstances(t, 1)
	srv := newTestServer(t, nil, insts)

	// Caller cancellation: the context is dead before the worker picks the
	// task up, so it is counted as canceled without executing.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Solve(cctx, serve.SolveRequest{Instance: "inst-0", K: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
	m := waitTotals(t, srv, func(m serve.ShardMetrics) bool { return m.Canceled == 1 })
	if m.Failed != 0 || m.Expired != 0 {
		t.Fatalf("cancellation leaked into Failed=%d/Expired=%d", m.Failed, m.Expired)
	}

	// Genuine execution error: an invalid k reaches the solver and fails.
	if _, err := srv.Solve(context.Background(), serve.SolveRequest{Instance: "inst-0", K: -1}); err == nil {
		t.Fatal("k=-1 solve succeeded")
	}
	m = waitTotals(t, srv, func(m serve.ShardMetrics) bool { return m.Failed == 1 })
	if m.Canceled != 1 || m.Expired != 0 {
		t.Fatalf("execution error miscounted: %+v", m)
	}

	// Deadline expiry stays its own signal.
	if _, err := srv.Solve(context.Background(), serve.SolveRequest{Instance: "inst-0", K: 2, Deadline: time.Nanosecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns deadline: err = %v, want context.DeadlineExceeded", err)
	}
	m = waitTotals(t, srv, func(m serve.ShardMetrics) bool { return m.Expired == 1 })
	if m.Canceled != 1 || m.Failed != 1 {
		t.Fatalf("deadline expiry miscounted: %+v", m)
	}
}

// TestQueueExpiryObserved pins that a request which expires in the queue
// still reaches the queue and end-to-end histograms: behind the one wedged
// worker, a request with a 50 ms deadline expires, and once the worker is
// released the shard counts it Expired, observes its wait of at least
// 50 ms in queue and total, and leaves exec to the request that executed.
func TestQueueExpiryObserved(t *testing.T) {
	srv, gate := gatedServer(t)
	defer srv.Close()
	wedged := wedge(t, srv)
	_, err := srv.Ecost(context.Background(), serve.EcostRequest[ukc.Vec]{
		Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Deadline: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		close(gate)
		t.Fatalf("queued request: err = %v, want context.DeadlineExceeded", err)
	}
	close(gate)
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	m := waitTotals(t, srv, func(m serve.ShardMetrics) bool { return m.Expired == 1 && m.QueueLatency.Count == 2 })
	if m.QueueLatency.Sum < 0.05 || m.TotalLatency.Count != 2 || m.ExecLatency.Count != 1 {
		t.Fatalf("queue count %d sum %vs, total count %d, exec count %d; want 2, ≥ 0.05s, 2, 1",
			m.QueueLatency.Count, m.QueueLatency.Sum, m.TotalLatency.Count, m.ExecLatency.Count)
	}
}

// TestLatencySplitAndPerInstance runs real traffic and checks the
// snapshot surfaces: the cross-shard queue, exec and end-to-end histograms
// each hold every request once, in the bucket of the duration its
// RequestStats reported, and the served instance reports its cache bytes
// and at least one recorded cache build (the cold first solve).
func TestLatencySplitAndPerInstance(t *testing.T) {
	insts := testInstances(t, 2)
	srv := newTestServer(t, nil, insts)
	ctx := context.Background()
	var queue, exec, total []time.Duration
	for i := 0; i < 5; i++ {
		resp, err := srv.Solve(ctx, serve.SolveRequest{Instance: "inst-0", K: 2})
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, resp.Stats.Queue)
		exec = append(exec, resp.Stats.Exec)
		total = append(total, resp.Stats.Queue+resp.Stats.Exec)
	}
	m := srv.Metrics().Totals()
	checkLatency(t, "queue", m.QueueLatency, queue...)
	checkLatency(t, "exec", m.ExecLatency, exec...)
	checkLatency(t, "total", m.TotalLatency, total...)

	var served *serve.InstanceMetrics
	for _, sh := range srv.Metrics().Shards {
		for i := range sh.PerInstance {
			if sh.PerInstance[i].Name == "inst-0" {
				served = &sh.PerInstance[i]
			}
		}
	}
	if served == nil {
		t.Fatal("inst-0 missing from PerInstance")
	}
	if served.CacheBytes <= 0 {
		t.Errorf("inst-0 CacheBytes = %d, want > 0 after solves", served.CacheBytes)
	}
	if served.CacheBuilds.Count == 0 {
		t.Error("inst-0 recorded no cache builds; the cold solve should observe the surrogate build")
	}
}

// TestCollectWalk checks the exporter walk: the core series are present,
// counters agree with the Metrics snapshot, histograms arrive whole
// through the histogram callback — one latency histogram per shard and
// stage, one cache-build histogram per instance — and label maps are fresh
// per call.
func TestCollectWalk(t *testing.T) {
	insts := testInstances(t, 2)
	srv := newTestServer(t, nil, insts)
	ctx := context.Background()
	for _, name := range []string{"inst-0", "inst-1"} {
		if _, err := srv.Solve(ctx, serve.SolveRequest{Instance: name, K: 2}); err != nil {
			t.Fatal(err)
		}
	}

	type sample struct {
		labels map[string]string
		value  float64
	}
	type histogram struct {
		labels map[string]string
		h      obs.HistogramSnapshot
	}
	series := map[string][]sample{}
	hists := map[string][]histogram{}
	srv.Collect(func(name string, labels map[string]string, value float64) {
		series[name] = append(series[name], sample{labels, value})
	}, func(name string, labels map[string]string, h obs.HistogramSnapshot) {
		hists[name] = append(hists[name], histogram{labels, h})
	})

	for _, want := range []string{
		"ukc_serve_requests_total",
		"ukc_serve_cache_events_total",
		"ukc_serve_instances",
		"ukc_serve_queue_depth",
		"ukc_serve_queue_capacity",
		"ukc_serve_cache_bytes",
		"ukc_serve_cache_budget_bytes",
		"ukc_serve_instance_cache_bytes",
	} {
		if len(series[want]) == 0 {
			t.Errorf("series %q missing from Collect walk", want)
		}
	}

	totals := srv.Metrics().Totals()
	var admitted, completed float64
	for _, s := range series["ukc_serve_requests_total"] {
		switch s.labels["outcome"] {
		case "admitted":
			admitted += s.value
		case "completed":
			completed += s.value
		}
	}
	if admitted != float64(totals.Admitted) || completed != float64(totals.Completed) {
		t.Errorf("walk counters admitted=%v completed=%v, snapshot %d/%d", admitted, completed, totals.Admitted, totals.Completed)
	}

	// Every executed request is in its shard's latency histograms: one
	// per shard and stage, adding up to the snapshot's totals.
	m := srv.Metrics()
	seen := map[string]bool{}
	var execCount uint64
	for _, h := range hists["ukc_serve_latency_seconds"] {
		key := h.labels["shard"] + "|" + h.labels["stage"]
		if seen[key] {
			t.Fatalf("duplicate latency histogram %q — label map aliasing", key)
		}
		seen[key] = true
		if len(h.labels) != 2 || !slices.Contains([]string{"queue", "exec", "total"}, h.labels["stage"]) {
			t.Fatalf("latency histogram labels %v, want shard and a stage", h.labels)
		}
		if h.labels["stage"] == "exec" {
			execCount += h.h.Count
		}
	}
	if len(seen) != 3*len(m.Shards) {
		t.Errorf("%d latency histograms, want 3 per shard over %d shards", len(seen), len(m.Shards))
	}
	if execCount != totals.ExecLatency.Count || execCount != 2 {
		t.Errorf("exec histograms count %d requests, Totals %d, want 2", execCount, totals.ExecLatency.Count)
	}

	// One cache-build histogram per instance, each holding its cold build.
	builds := hists["ukc_serve_instance_cache_build_seconds"]
	if len(builds) != 2 {
		t.Fatalf("%d cache-build histograms, want one per instance", len(builds))
	}
	for _, h := range builds {
		if h.h.Count == 0 || h.labels["instance"] == "" || h.labels["shard"] == "" {
			t.Errorf("cache-build histogram %v: count %d, want ≥ 1", h.labels, h.h.Count)
		}
	}
}
