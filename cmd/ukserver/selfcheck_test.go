package main

// The gateway's end-to-end smoke path, run in-process by TestSelfcheck: every
// endpoint for both instance kinds over real HTTP on a loopback port, a
// parse-checked /metrics scrape, trace retention, and a warm restart from
// frozen snapshots that must answer bit-identically without compiling.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/graphmetric"
	"repro/obs"
	"repro/store"
)

// TestSelfcheck runs the full smoke path in-process: every endpoint,
// both instance kinds, over real HTTP on a loopback port. The flight
// recorder runs at its production defaults so the trace-retention step is
// exercised, not skipped.
func TestSelfcheck(t *testing.T) {
	gw, err := newGateway(1, nil, obs.NewFlightRecorder(obs.FlightConfig{}), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	if err := gw.selfcheck(t, slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		t.Fatal(err)
	}
}

// selfcheck boots the gateway on a loopback port and drives every endpoint
// through real HTTP for both instance kinds — the smoke path. pprof is
// mounted so its surface is smoke-tested too, and the /metrics scrape is
// parsed and asserted, not just status-checked. After the endpoint sweep it
// freezes both instances and proves the warm-restart contract: a second
// gateway booted from the snapshot directory lists them and answers
// bit-identically, without one compile span firing.
func (g *gateway) selfcheck(t *testing.T, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: g.handler(true, logger)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	rng := rand.New(rand.NewSource(1))

	// Euclidean instance via cmd/datagen's writer.
	pts, err := gen.GaussianClusters(rng, 40, 4, 2, 3, 1, 0.4)
	if err != nil {
		return err
	}
	var euBody bytes.Buffer
	if err := dataio.WriteEuclidean(&euBody, pts); err != nil {
		return err
	}
	// Finite instance on a random geometric graph metric.
	graph, _, err := graphmetric.RandomGeometric(30, 0.3, rng)
	if err != nil {
		return err
	}
	space, err := graph.Metric()
	if err != nil {
		return err
	}
	fpts, err := gen.OnVerticesLocal(rng, space, 20, 3)
	if err != nil {
		return err
	}
	var finBody bytes.Buffer
	if err := dataio.WriteFinite(&finBody, space, fpts); err != nil {
		return err
	}

	steps := []selfcheckStep{
		{"register-euclidean", http.MethodPut, "/v1/instances/smoke-eu", &euBody, http.StatusCreated},
		{"register-finite", http.MethodPut, "/v1/instances/smoke-fin", &finBody, http.StatusCreated},
		{"list", http.MethodGet, "/v1/instances", nil, http.StatusOK},
		{"solve-euclidean", http.MethodPost, "/v1/solve", jsonBody(`{"instance":"smoke-eu","k":3}`), http.StatusOK},
		{"solve-finite", http.MethodPost, "/v1/solve", jsonBody(`{"instance":"smoke-fin","k":2}`), http.StatusOK},
		{"assign-euclidean", http.MethodPost, "/v1/assign", jsonBody(`{"instance":"smoke-eu","centers":[[0,0],[4,4]]}`), http.StatusOK},
		{"assign-finite", http.MethodPost, "/v1/assign", jsonBody(`{"instance":"smoke-fin","centers":[0,3]}`), http.StatusOK},
		{"unassigned-euclidean", http.MethodPost, "/v1/unassigned", jsonBody(`{"instance":"smoke-eu","k":2}`), http.StatusOK},
		{"unassigned-finite", http.MethodPost, "/v1/unassigned", jsonBody(`{"instance":"smoke-fin","k":2}`), http.StatusOK},
		{"unassigned-index-field", http.MethodPost, "/v1/unassigned", jsonBody(`{"instance":"smoke-eu","k":2,"index":"approx"}`), http.StatusBadRequest},
		{"ecost-euclidean", http.MethodPost, "/v1/ecost", jsonBody(`{"instance":"smoke-eu","centers":[[0,0],[4,4]]}`), http.StatusOK},
		{"ecost-finite", http.MethodPost, "/v1/ecost", jsonBody(`{"instance":"smoke-fin","centers":[0,3]}`), http.StatusOK},
		{"sweep-euclidean", http.MethodPost, "/v1/sweep", jsonBody(`{"instance":"smoke-eu","centers":[[0,0],[4,4]]}`), http.StatusOK},
		{"sweep-finite", http.MethodPost, "/v1/sweep", jsonBody(`{"instance":"smoke-fin","centers":[0,3]}`), http.StatusOK},
		{"solve-unknown", http.MethodPost, "/v1/solve", jsonBody(`{"instance":"ghost","k":2}`), http.StatusNotFound},
		{"freeze-euclidean", http.MethodPost, "/v1/instances/smoke-eu/freeze", nil, http.StatusOK},
		{"freeze-finite", http.MethodPost, "/v1/instances/smoke-fin/freeze", nil, http.StatusOK},
		{"freeze-unknown", http.MethodPost, "/v1/instances/ghost/freeze", nil, http.StatusNotFound},
		{"traces", http.MethodGet, "/v1/traces", nil, http.StatusOK},
		{"requests", http.MethodGet, "/v1/requests", nil, http.StatusOK},
		{"pprof-cmdline", http.MethodGet, "/debug/pprof/cmdline", nil, http.StatusOK},
	}
	client := &http.Client{Timeout: 30 * time.Second}
	runSteps := func(steps []selfcheckStep) error {
		for _, s := range steps {
			req, err := http.NewRequest(s.method, base+s.path, s.body)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			out, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if resp.StatusCode != s.wantStatus {
				return fmt.Errorf("%s: status %d, want %d: %s", s.name, resp.StatusCode, s.wantStatus, out)
			}
			if resp.Header.Get("X-Request-ID") == "" {
				return fmt.Errorf("%s: no X-Request-ID on response", s.name)
			}
			t.Logf("%-24s %d %s", s.name, resp.StatusCode, truncate(out, 140))
		}
		return nil
	}
	if err := runSteps(steps); err != nil {
		return err
	}
	if err := scrapeProm(client, base); err != nil {
		return fmt.Errorf("prom-metrics: %w", err)
	}
	t.Logf("%-24s %d %s", "prom-metrics", http.StatusOK, "exposition parsed, core + runtime series present")
	if err := g.checkTraces(t, client, base); err != nil {
		return fmt.Errorf("trace-retention: %w", err)
	}
	t.Logf("%-24s %d %s", "trace-retention", http.StatusOK, "retained traces served, in-flight table idle")

	// Warm-restart contract: capture the cold solves, boot a second gateway
	// from the snapshot directory just frozen into, and require identical
	// answers with zero recompilation.
	coldSolves := map[string][]byte{}
	for name, body := range solveBodies {
		out, status, err := postJSON(client, base+"/v1/solve", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("cold solve %s: status %d err %v", name, status, err)
		}
		coldSolves[name] = out
	}
	if err := warmRestartCheck(logger, g.snapDir, coldSolves); err != nil {
		return fmt.Errorf("warm-restart: %w", err)
	}
	t.Logf("%-24s %d %s", "warm-restart", http.StatusOK, "snapshot boot served both kinds bit-identically, no compile spans")

	tail := []selfcheckStep{
		{"unregister", http.MethodDelete, "/v1/instances/smoke-eu", nil, http.StatusOK},
		{"solve-after-unregister", http.MethodPost, "/v1/solve", jsonBody(`{"instance":"smoke-eu","k":3}`), http.StatusNotFound},
	}
	return runSteps(tail)
}

// selfcheckStep is one smoke-path request and its expected status.
type selfcheckStep struct {
	name, method, path string
	body               io.Reader
	wantStatus         int
}

// solveBodies are the deterministic solve requests compared across the cold
// gateway and the warm-restarted one.
var solveBodies = map[string]string{
	"smoke-eu":  `{"instance":"smoke-eu","k":3}`,
	"smoke-fin": `{"instance":"smoke-fin","k":2}`,
}

func postJSON(client *http.Client, url, body string) ([]byte, int, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// withoutStats parses a workload response and drops the per-request "stats"
// block — shard/latency telemetry legitimately differs across processes;
// everything else must not.
func withoutStats(raw []byte) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "stats")
	return m, nil
}

// warmRestartCheck boots a fresh gateway against snapDir — the restart path
// of a production ukserver — and asserts the acceptance criteria: both
// frozen instances are listed under their kinds, their solves match the
// cold gateway's byte-for-byte (minus stats), the tracer never saw a
// "compile.*" span (and demonstrably saw the solves: cache-build spans
// fired), and the mapped-bytes gauge is exported.
func warmRestartCheck(logger *slog.Logger, snapDir string, coldSolves map[string][]byte) error {
	rec := &obs.Recorder{}
	warm, err := newGateway(1, rec, nil, snapDir)
	if err != nil {
		return fmt.Errorf("booting from %s: %w", snapDir, err)
	}
	defer warm.close()
	if k := warm.kindOf("smoke-eu"); k != dataio.KindEuclidean {
		return fmt.Errorf("smoke-eu kind after warm start = %q, want %q", k, dataio.KindEuclidean)
	}
	if k := warm.kindOf("smoke-fin"); k != dataio.KindFinite {
		return fmt.Errorf("smoke-fin kind after warm start = %q, want %q", k, dataio.KindFinite)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: warm.handler(false, logger)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	for _, name := range []string{"smoke-eu", "smoke-fin"} {
		out, status, err := postJSON(client, base+"/v1/solve", solveBodies[name])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm solve %s: status %d err %v", name, status, err)
		}
		cold, err := withoutStats(coldSolves[name])
		if err != nil {
			return fmt.Errorf("cold solve %s: %w", name, err)
		}
		warmOut, err := withoutStats(out)
		if err != nil {
			return fmt.Errorf("warm solve %s: %w", name, err)
		}
		if !reflect.DeepEqual(cold, warmOut) {
			return fmt.Errorf("solve %s diverges after warm restart:\ncold %v\nwarm %v", name, cold, warmOut)
		}
	}

	// The point of the snapshot path: the warm gateway never compiled. The
	// build spans prove the assertion is not vacuous — the tracer watched
	// the solves happen.
	var sawBuild bool
	for _, sp := range rec.Spans() {
		if strings.HasPrefix(sp.Name, "compile.") {
			return fmt.Errorf("compile span %q fired on the warm gateway", sp.Name)
		}
		if strings.HasPrefix(sp.Name, "surrogate.build") || sp.Name == "evaluator.build" {
			sawBuild = true
		}
	}
	if !sawBuild {
		return fmt.Errorf("warm gateway's tracer saw no cache-build spans — the no-compile assertion is vacuous")
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	series, err := parsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("parsing warm exposition: %w", err)
	}
	mapped := series["ukc_store_mapped_bytes"]
	if len(mapped) != 1 {
		return fmt.Errorf("ukc_store_mapped_bytes series count = %d, want 1", len(mapped))
	}
	if want := float64(store.MappedBytes()); mapped[0].value != want || (store.MmapAvailable() && want <= 0) {
		return fmt.Errorf("ukc_store_mapped_bytes = %v (store reports %v, mmap available %v)", mapped[0].value, want, store.MmapAvailable())
	}
	return nil
}

// checkTraces asserts the flight recorder's HTTP face after the endpoint
// sweep: /v1/traces serves at least one retained trace whose tree carries
// the serving layer's request/queue/exec spans, and /v1/requests is an
// empty (idle) table.
func (g *gateway) checkTraces(t *testing.T, client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/traces")
	if err != nil {
		return err
	}
	var traces struct {
		Traces []traceOut `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /v1/traces: %w", err)
	}
	if len(traces.Traces) == 0 {
		return fmt.Errorf("no traces retained after the endpoint sweep (recorder stats: %+v)", g.fr.Stats())
	}
	found := false
	for _, tr := range traces.Traces {
		names := map[string]bool{}
		for _, sp := range tr.Spans {
			names[sp.Name] = true
		}
		if names["serve.request"] && names["serve.queue"] && names["serve.exec"] {
			found = true
			t.Logf("%-24s     trace %s", "", traceSummary(tr))
			break
		}
	}
	if !found {
		return fmt.Errorf("no retained trace carries the serve.request/queue/exec tree (%d retained)", len(traces.Traces))
	}

	resp, err = client.Get(base + "/v1/requests")
	if err != nil {
		return err
	}
	var reqs struct {
		Requests []inflightOut `json:"requests"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reqs)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /v1/requests: %w", err)
	}
	if len(reqs.Requests) != 0 {
		return fmt.Errorf("in-flight table not empty on an idle gateway: %+v", reqs.Requests)
	}
	return nil
}

// scrapeProm fetches /metrics and asserts the exposition is parseable and
// carries the core series with sane values: per-shard outcome counters
// reflecting the solves just driven, the queue/exec/total latency split,
// capacity gauges, the per-instance cache histogram for the
// still-registered finite instance, the Go runtime series, and the gateway
// HTTP latency histogram.
func scrapeProm(client *http.Client, base string) error {
	// Force a GC first so the pause histogram provably has samples to serve.
	runtime.GC()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !bytes.Contains([]byte(ct), []byte("text/plain")) {
		return fmt.Errorf("content type %q", ct)
	}
	series, err := parsePromText(resp.Body)
	if err != nil {
		return fmt.Errorf("parsing exposition: %w", err)
	}

	sum := func(name string, match map[string]string) (total float64, n int) {
		for _, s := range series[name] {
			ok := true
			for k, v := range match {
				if s.labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				total += s.value
				n++
			}
		}
		return total, n
	}

	for _, kind := range []string{dataio.KindEuclidean, dataio.KindFinite} {
		if completed, _ := sum("ukc_serve_requests_total", map[string]string{"kind": kind, "outcome": "completed"}); completed < 1 {
			return fmt.Errorf("kind %s: completed requests = %v, want >= 1", kind, completed)
		}
	}
	if caps, _ := sum("ukc_serve_queue_capacity", nil); caps <= 0 {
		return fmt.Errorf("queue capacity total = %v, want > 0", caps)
	}
	for _, stage := range []string{"queue", "exec", "total"} {
		if _, n := sum("ukc_serve_latency_seconds", map[string]string{"stage": stage, "quantile": "0.99"}); n == 0 {
			return fmt.Errorf("latency stage %q missing", stage)
		}
	}
	if builds, _ := sum("ukc_serve_instance_cache_build_seconds_count", map[string]string{"instance": "smoke-fin"}); builds < 1 {
		return fmt.Errorf("smoke-fin cache-build histogram count = %v, want >= 1 (cold solve must record a build)", builds)
	}
	if scanned, _ := sum("ukc_serve_prune_total", map[string]string{"event": "scanned"}); scanned < 1 {
		return fmt.Errorf("prune_total scanned = %v, want >= 1 (default-pruned unassigned solves must account their scans)", scanned)
	}
	if goroutines, _ := sum("go_goroutines", nil); goroutines < 1 {
		return fmt.Errorf("go_goroutines = %v, want >= 1", goroutines)
	}
	if heap, _ := sum("go_heap_alloc_bytes", nil); heap <= 0 {
		return fmt.Errorf("go_heap_alloc_bytes = %v, want > 0", heap)
	}
	if pauses, n := sum("go_gc_pause_seconds_count", nil); n != 1 || pauses < 1 {
		return fmt.Errorf("go_gc_pause_seconds_count = %v (%d series), want >= 1 after a forced GC", pauses, n)
	}
	if httpReqs, _ := sum("ukc_http_request_duration_seconds_count", nil); httpReqs < 1 {
		return fmt.Errorf("ukc_http_request_duration_seconds_count = %v, want >= 1 (the sweep's requests flow through the latency histogram)", httpReqs)
	}
	return nil
}

func jsonBody(s string) io.Reader { return bytes.NewReader([]byte(s)) }

func truncate(b []byte, n int) string {
	s := string(bytes.TrimSpace(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// traceSummary renders a one-line digest of a retained trace for the
// selfcheck log: span names in record order.
func traceSummary(tr traceOut) string {
	names := make([]string, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	return tr.TraceID[:8] + " [" + tr.Reason + "] " + strings.Join(names, " → ")
}
