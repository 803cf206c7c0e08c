package serve_test

// Trace participation, the in-flight request table, and the panicked-path
// latency split: the serving layer's side of the flight-recorder contract.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	ukc "repro"
	"repro/obs"
	"repro/serve"
)

// retainAll is a recorder configuration under which every completed trace
// is retained as "slow" — deterministic retention for tests.
func retainAll() *obs.FlightRecorder {
	return obs.NewFlightRecorder(obs.FlightConfig{Reservoir: -1, Threshold: time.Nanosecond})
}

// TestServeTracePropagation drives SolveUnassigned through a recorder-backed
// server with an incoming trace context and asserts the retained trace is
// the full tree: the server root parented on the caller's span, the
// queue-wait and exec spans under it, and the solver's local-search spans
// under exec — all sharing the propagated trace ID.
func TestServeTracePropagation(t *testing.T) {
	fr := retainAll()
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(3))
	srv := newTestServer(t, solver, testInstances(t, 1), serve.WithFlightRecorder(fr))

	caller := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	ctx := obs.ContextWithTrace(context.Background(), caller)
	if _, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst-0", K: 2}); err != nil {
		t.Fatal(err)
	}

	traces := fr.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != caller.TraceID {
		t.Fatalf("trace ID %s, want propagated %s", tr.TraceID, caller.TraceID)
	}
	root, ok := tr.Span("serve.request")
	if !ok || root.ParentID != caller.SpanID || root.Instance != "inst-0" {
		t.Fatalf("server root not parented on caller span: %+v", root)
	}
	queue, ok := tr.Span("serve.queue")
	if !ok || queue.ParentID != root.SpanID {
		t.Fatalf("queue span missing or misparented: %+v", queue)
	}
	exec, ok := tr.Span("serve.exec")
	if !ok || exec.ParentID != root.SpanID {
		t.Fatalf("exec span missing or misparented: %+v", exec)
	}
	var ls int
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "ls.") {
			if sp.ParentID != exec.SpanID {
				t.Fatalf("solver span %q not parented under exec: %+v", sp.Name, sp)
			}
			ls++
		}
	}
	if ls == 0 {
		t.Fatalf("no ls.* solver spans assembled; got %d spans", len(tr.Spans))
	}
}

// TestServeTraceFastNotRetained pins tail sampling at the serving layer: a
// clean request below the latency threshold leaves nothing behind.
func TestServeTraceFastNotRetained(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.FlightConfig{Reservoir: -1, Threshold: time.Hour})
	solver := ukc.NewSolver[ukc.Vec](ukc.WithMaxIter(3))
	srv := newTestServer(t, solver, testInstances(t, 1), serve.WithFlightRecorder(fr))
	if _, err := srv.SolveUnassigned(context.Background(), serve.UnassignedRequest{Instance: "inst-0", K: 2}); err != nil {
		t.Fatal(err)
	}
	if traces := fr.Traces(); len(traces) != 0 {
		t.Fatalf("fast clean request retained %d traces: %+v", len(traces), traces)
	}
	if st := fr.Stats(); st.Completed != 1 || st.Sampled != 1 {
		t.Fatalf("stats %+v, want 1 completed/1 sampled", st)
	}
}

// panicSpace sleeps, then panics, on every distance call — a workload whose
// execution is both measurably long and fatally broken, for pinning that
// the latency histograms and the trace keep the queue/exec split of
// panicked requests.
type panicSpace struct{ delay time.Duration }

func (p panicSpace) Dist(a, b ukc.Vec) float64 {
	time.Sleep(p.delay)
	panic("panicSpace: injected")
}

// TestServePanickedLatencySplit is the regression test for the panicked
// path's latency accounting: a request that panics mid-execution must still
// record both its queue-wait and execution components — in the caller's
// RequestStats, in the shard latency histograms, and in the retained trace.
func TestServePanickedLatencySplit(t *testing.T) {
	const delay = 5 * time.Millisecond
	fr := retainAll()
	srv := newTestServer(t, ukc.NewSolver[ukc.Vec](), nil, serve.WithFlightRecorder(fr))
	inst := ukc.NewInstance[ukc.Vec](panicSpace{delay: delay}, []ukc.Point{
		{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{1}},
	}, nil)
	if err := srv.Register(context.Background(), "boom", inst); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Ecost(context.Background(), serve.EcostRequest[ukc.Vec]{
		Instance: "boom", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0},
	})
	if !errors.Is(err, serve.ErrPanicked) {
		t.Fatalf("err = %v, want ErrPanicked", err)
	}
	if resp.Stats.Exec < delay {
		t.Fatalf("panicked request's Exec = %v, want ≥ %v", resp.Stats.Exec, delay)
	}

	m := srv.Metrics().Totals()
	if m.Panicked != 1 {
		t.Fatalf("Panicked = %d, want 1", m.Panicked)
	}
	checkLatency(t, "queue", m.QueueLatency, resp.Stats.Queue)
	checkLatency(t, "exec", m.ExecLatency, resp.Stats.Exec)
	checkLatency(t, "total", m.TotalLatency, resp.Stats.Queue+resp.Stats.Exec)

	// The panicked trace is retained (reason: error) with both spans.
	traces := fr.Traces()
	if len(traces) != 1 || traces[0].Reason != obs.KeepError || traces[0].Err == "" {
		t.Fatalf("panicked trace not retained as error: %+v", traces)
	}
	if _, ok := traces[0].Span("serve.queue"); !ok {
		t.Fatal("panicked trace lost its queue span")
	}
	exec, ok := traces[0].Span("serve.exec")
	if !ok || exec.Dur < delay {
		t.Fatalf("panicked trace lost its exec span: %+v", exec)
	}
}

// TestServeDisabledRecorderAllocs pins that the disabled flight recorder
// adds zero allocations to the warm request path. The whole warm Ecost
// round trip (task, contexts, channel, AfterFunc stopper, in-flight entry)
// measures 14 allocs/op today and 23 with the recorder on; the bound of 18
// leaves four of headroom for runtime noise while staying below the
// enabled path — if a nil guard on the trace path is ever lost, this
// fails.
func TestServeDisabledRecorderAllocs(t *testing.T) {
	srv := newTestServer(t, ukc.NewSolver[ukc.Vec](), testInstances(t, 1))
	ctx := context.Background()
	req := serve.EcostRequest[ukc.Vec]{Instance: "inst-0", Centers: []ukc.Vec{{0, 0}, {1, 1}}}
	if _, err := srv.Ecost(ctx, req); err != nil {
		t.Fatal(err) // warm the caches outside the measured window
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := srv.Ecost(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 18 {
		t.Fatalf("warm request path with disabled recorder: %v allocs/op, want ≤ 18", allocs)
	}
}

// TestServeInflightTable wedges a worker and snapshots the live request
// table: the executing and queued requests are both visible with truthful
// states, and the table drains to empty with the requests.
func TestServeInflightTable(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	gated := ukc.NewInstance[ukc.Vec](gateSpace{gate}, []ukc.Point{
		{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{1}},
	}, nil)
	srv := newTestServer(t, ukc.NewSolver[ukc.Vec](), nil, serve.WithQueueDepth(2), serve.WithWorkersPerShard(1))
	if err := srv.Register(ctx, "gated", gated); err != nil {
		t.Fatal(err)
	}

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; table: %+v", desc, srv.Inflight())
			}
			time.Sleep(time.Millisecond)
		}
	}

	done := make(chan error, 2)
	ecost := func() {
		_, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{
			Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0},
		})
		done <- err
	}
	go ecost()
	waitFor("the first request to start executing", func() bool {
		rows := srv.Inflight()
		return len(rows) == 1 && rows[0].State == "executing"
	})
	go ecost()
	waitFor("the second request to queue", func() bool {
		return len(srv.Inflight()) == 2
	})

	rows := srv.Inflight()
	if len(rows) != 2 {
		t.Fatalf("table has %d rows, want 2: %+v", len(rows), rows)
	}
	// Oldest first: the executing request was admitted before the queued one.
	if rows[0].State != "executing" || rows[0].Exec <= 0 {
		t.Fatalf("row 0 not executing: %+v", rows[0])
	}
	if rows[1].State != "queued" || rows[1].Exec != 0 {
		t.Fatalf("row 1 not queued: %+v", rows[1])
	}
	for _, r := range rows {
		if r.Workload != "ecost" || r.Instance != "gated" || r.Elapsed <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor("the table to drain", func() bool { return len(srv.Inflight()) == 0 })
}

// TestServeInflightOverloadRemoved pins that an admission-rejected request
// never lingers in the table.
func TestServeInflightOverloadRemoved(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	defer close(gate)
	gated := ukc.NewInstance[ukc.Vec](gateSpace{gate}, []ukc.Point{
		{Locs: []ukc.Vec{{0, 0}}, Probs: []float64{1}},
	}, nil)
	srv := newTestServer(t, ukc.NewSolver[ukc.Vec](), nil, serve.WithQueueDepth(1), serve.WithWorkersPerShard(1))
	if err := srv.Register(ctx, "gated", gated); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	ecost := func() {
		_, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{
			Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0},
		})
		done <- err
	}
	go ecost()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows := srv.Inflight()
		if len(rows) == 1 && rows[0].State == "executing" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never wedged: %+v", rows)
		}
		time.Sleep(time.Millisecond)
	}
	go ecost()
	for len(srv.Inflight()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := srv.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: "gated", Centers: []ukc.Vec{{1, 1}}, Assign: []int{0}})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if rows := srv.Inflight(); len(rows) != 2 {
		t.Fatalf("rejected request lingers in the table: %+v", rows)
	}
}
