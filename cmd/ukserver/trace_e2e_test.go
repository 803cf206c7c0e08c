package main

// End-to-end trace propagation: the public client drives the gateway over
// real HTTP with fault-injected execution latency, and the flight recorder
// the client and gateway share assembles ONE trace — client call and
// attempt spans, the serving layer's request/queue/exec tree, and the
// solver's local-search spans — retained by tail sampling and served on
// /v1/traces, where a slow /metrics latency bucket leads through ?min_ms=.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faults"
	"repro/obs"
)

// traceGateway boots a recorder-backed gateway on httptest and a client
// sharing the same recorder, registers one euclidean instance "fleet", and
// returns the pieces.
func traceGateway(t *testing.T, fr *obs.FlightRecorder) (*httptest.Server, *client.Client) {
	t.Helper()
	gw, err := newGateway(1, nil, fr, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.close)
	ts := httptest.NewServer(gw.handler(false, slog.New(slog.NewTextHandler(io.Discard, nil))))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL,
		client.WithFlightRecorder(fr),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(context.Background(), "fleet", []byte(euDoc(t, 11))); err != nil {
		t.Fatal(err)
	}
	return ts, c
}

// TestTraceEndToEnd is the acceptance path: a slow (fault-injected) solve
// driven through client → ukserver → serve → solver is retained as one
// trace whose tree carries the client attempt span, the queue-wait span,
// the exec span and the solver's ls.* spans — all under the trace ID the
// client propagated. The live /metrics scrape stays valid in its declared
// format, and the slow bucket it shows leads back to the trace through
// GET /v1/traces?min_ms=.
func TestTraceEndToEnd(t *testing.T) {
	const threshold = 50 * time.Millisecond
	fr := obs.NewFlightRecorder(obs.FlightConfig{Reservoir: -1, Threshold: threshold})
	ts, c := traceGateway(t, fr)

	// Every execution takes ≥ 60ms: over the retention threshold, so the
	// trace MUST be kept as slow.
	faults.Enable(faults.Plan{Seed: 1, Rules: map[string]faults.Rule{
		"serve.exec": {Latency: 1, Delay: 60 * time.Millisecond},
	}})
	resp, err := c.Unassigned(context.Background(), "fleet", 2, 0)
	faults.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Fatal("response carries no echoed request ID")
	}

	// Fetch the retained traces over HTTP, exercising the filters on the way.
	var list struct {
		Traces []traceOut `json:"traces"`
	}
	hresp, err := http.Get(ts.URL + "/v1/traces?instance=fleet&min_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&list)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one retained trace carries the full client→server→solver tree.
	var full []traceOut
	for _, tr := range list.Traces {
		names := map[string]bool{}
		for _, sp := range tr.Spans {
			names[sp.Name] = true
		}
		if names["client.attempt"] && names["serve.queue"] && names["serve.exec"] {
			full = append(full, tr)
		}
	}
	if len(full) != 1 {
		t.Fatalf("retained %d full client→server traces, want 1 (served %d total)", len(full), len(list.Traces))
	}
	tr := full[0]
	if tr.Reason != string(obs.KeepSlow) {
		t.Fatalf("trace retained as %q, want slow", tr.Reason)
	}
	if tr.DurMS < 60 {
		t.Fatalf("trace duration %vms, want ≥ the injected 60ms", tr.DurMS)
	}

	// The tree is properly parented: attempt under the client root, queue and
	// exec under the server root (which is itself parented on the attempt's
	// propagated span), and at least one solver span under exec.
	span := func(name string) spanOut {
		t.Helper()
		for _, sp := range tr.Spans {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("trace has no %q span: %+v", name, tr.Spans)
		return spanOut{}
	}
	root, attempt := span("client.call"), span("client.attempt")
	serveRoot, queue, exec := span("serve.request"), span("serve.queue"), span("serve.exec")
	if attempt.ParentID != root.SpanID {
		t.Fatalf("attempt parented on %s, want client root %s", attempt.ParentID, root.SpanID)
	}
	if serveRoot.ParentID == "" || serveRoot.Instance != "fleet" {
		t.Fatalf("server root not joined under the propagated context: %+v", serveRoot)
	}
	if queue.ParentID != serveRoot.SpanID || exec.ParentID != serveRoot.SpanID {
		t.Fatalf("queue/exec misparented: queue %+v exec %+v", queue, exec)
	}
	if exec.DurUS < 60_000 {
		t.Fatalf("exec span %vus, want ≥ the injected 60ms", exec.DurUS)
	}
	var ls int
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "ls.") {
			if sp.ParentID != exec.SpanID {
				t.Fatalf("solver span %q not under exec: %+v", sp.Name, sp)
			}
			ls++
		}
	}
	if ls == 0 {
		t.Fatalf("no ls.* solver spans in the trace: %+v", tr.Spans)
	}

	// Every sample line of the live scrape is strictly name[{labels}] value,
	// as text/plain; version=0.0.4 has it: parsePromText rejects anything
	// after the value, an exemplar included. The gateway histogram shows a
	// request slower than 50ms (its le=0.05 bucket holds fewer than all of
	// them) once requestLog, which observes after the response is written,
	// has recorded the slow call.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		series, err := parsePromText(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			t.Fatalf("live exposition is not valid text format: %v", err)
		}
		var fast, all float64
		for _, b := range series["ukc_http_request_duration_seconds_bucket"] {
			switch b.labels["le"] {
			case "0.05":
				fast = b.value
			case "+Inf":
				all = b.value
			}
		}
		if fast < all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("HTTP latency histogram shows no request over 50ms (le=0.05: %v of %v)", fast, all)
		}
		time.Sleep(time.Millisecond)
	}

	// The operator's next step from that bucket, /v1/traces?min_ms=50,
	// serves the slow request's trace.
	var slow struct {
		Traces []traceOut `json:"traces"`
	}
	sresp, err := http.Get(ts.URL + "/v1/traces?min_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(sresp.Body).Decode(&slow)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range slow.Traces {
		found = found || st.TraceID == tr.TraceID
	}
	if !found {
		t.Fatalf("/v1/traces?min_ms=50 does not serve the slow request's trace %s", tr.TraceID)
	}

	// Nothing is in flight once the call returned.
	rresp, err := http.Get(ts.URL + "/v1/requests")
	if err != nil {
		t.Fatal(err)
	}
	var reqs struct {
		Requests []inflightOut `json:"requests"`
	}
	err = json.NewDecoder(rresp.Body).Decode(&reqs)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs.Requests) != 0 {
		t.Fatalf("in-flight table not drained: %+v", reqs.Requests)
	}
}

// TestTraceFastNotRetained is the companion: the same path without injected
// latency stays below the threshold and leaves nothing behind.
func TestTraceFastNotRetained(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.FlightConfig{Reservoir: -1, Threshold: time.Hour})
	ts, c := traceGateway(t, fr)

	if _, err := c.Unassigned(context.Background(), "fleet", 2, 0); err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []traceOut `json:"traces"`
	}
	hresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&list)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 0 {
		t.Fatalf("fast clean request retained %d traces: %+v", len(list.Traces), list.Traces)
	}
	if st := fr.Stats(); st.Completed < 1 {
		t.Fatalf("recorder saw no completed traces: %+v", st)
	}
}

// TestTracesErrorFilter pins the ?error=true filter: an erred request is
// retained with its error and the filter serves only erred traces.
func TestTracesErrorFilter(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.FlightConfig{Reservoir: -1, Threshold: time.Nanosecond})
	ts, c := traceGateway(t, fr)

	faults.Enable(faults.Plan{Seed: 3, Rules: map[string]faults.Rule{
		"serve.exec": {Panic: 1},
	}})
	_, err := c.Unassigned(context.Background(), "fleet", 2, 0)
	faults.Disable()
	if err == nil {
		t.Fatal("panicked solve returned no error")
	}

	var list struct {
		Traces []traceOut `json:"traces"`
	}
	hresp, err := http.Get(ts.URL + "/v1/traces?error=true")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&list)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("error filter served no traces after a panicked solve")
	}
	for _, tr := range list.Traces {
		if tr.Err == "" || tr.Reason != string(obs.KeepError) {
			t.Fatalf("error filter served a clean trace: %+v", tr)
		}
	}
}
