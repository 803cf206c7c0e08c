// Command ukserver serves registered uncertain k-center instances over
// JSON-on-HTTP: a thin shell around serve.Server that exposes the registry
// (register/unregister/list), the typed workloads (solve, assign, ecost,
// sweep, unassigned) and the serving metrics exposition.
//
// Instances are registered by uploading the cmd/datagen JSON document (the
// internal/dataio schema); the document's "kind" field selects the
// Euclidean or finite-metric server, and registration compiles — and
// therefore validates — the model before it is ever served. Both kinds run
// behind the same sharded admission/deadline/eviction machinery.
//
//	ukserver -addr :8080 -shards 4 -workers 2 -cache-budget 268435456
//
//	curl -X PUT  localhost:8080/v1/instances/fleet --data-binary @fleet.json
//	curl -X POST localhost:8080/v1/solve -d '{"instance":"fleet","k":3}'
//	curl        localhost:8080/metrics
//
// Observability: every request is logged as one structured (log/slog) line
// carrying a request ID — X-Request-ID is honored when the caller sends
// one, generated and echoed otherwise — and a trace ID: an incoming W3C
// traceparent header joins the caller's trace, anything else roots a fresh
// one. GET /metrics serves the full serving-layer state (per-shard request
// counters with the completed/failed/canceled/expired split, queue-wait,
// execution and end-to-end latency histograms, per-instance cache gauges
// and cache-build histograms, all labeled by instance kind) in the
// Prometheus text exposition format, hand-rolled with no client
// dependency, plus Go runtime gauges (goroutines, heap, GC pauses) and the
// gateway request-duration histogram. -pprof mounts net/http/pprof under
// /debug/pprof/, and -trace logs every solver span (see ukc.WithTracer) at
// debug level.
//
// Flight recorder: unless -trace-retain 0, every request assembles a trace
// (admission → queue wait → execution → solver spans) in a fixed-capacity
// in-process recorder with tail-based retention — erred/panicked traces and
// traces at or above -trace-slow are always kept (ring of -trace-retain),
// plus a -trace-sample reservoir of fast clean ones as a baseline. GET
// /v1/traces serves the retained traces as JSON (?instance=, ?min_ms=,
// ?error=true filters); GET /v1/requests snapshots the live in-flight
// request table (workload, instance, shard, queued-or-executing, elapsed,
// trace ID) without stopping the world.
//
//	curl 'localhost:8080/v1/traces?min_ms=100'
//	curl  localhost:8080/v1/requests
//
// Wire schema: every request and response body is declared once, in
// internal/wire, which package client decodes with. One generic adapter
// (runWorkload) serves all five workloads for either instance kind.
//
// Status mapping: 400 malformed JSON (a workload body must be exactly one
// object with only the request's fields), 404 unknown instance, 409
// duplicate registration, 413 request body over its cap (1 GiB for an
// instance document, 64 MiB for a workload request), 422 invalid instance
// data or workload input (centers the instance's space cannot measure), or
// a result JSON cannot carry (a +Inf cost from centers so far away that the
// squared distance overflows; the body is encoded before the status), 429
// shard queue full (ErrOverloaded — back off and retry), 500 a request
// that panicked inside the solver (the worker survived; see
// serve.ErrPanicked), 503 draining or closed, 504 deadline exceeded. 429
// and draining-503 responses carry a Retry-After header — on 429 derived
// from the live queue depth and the shard's observed execution latency, so
// well-behaved clients (package client honors it) back off exactly as long
// as the backlog warrants.
//
// Shutdown: SIGINT/SIGTERM stops the listener, then drains the serving
// layer — admitted requests finish, new ones are rejected 503 — bounded by
// -drain-timeout. With -freeze-on-shutdown (and a -snapshot-dir) a clean
// drain freezes every instance so the next boot warm-starts. Corrupt
// snapshots found at boot are quarantined (renamed *.ukc.quarantine),
// counted and skipped rather than aborting startup; stale *.ukc.tmp files
// from torn writes are swept.
//
// Persistence: -snapshot-dir names a directory of zero-copy snapshots
// (package store). On boot every "*.ukc" file in it is opened — mmap'd, not
// decoded — and registered under its base name, so a restarted server
// answers its first request without recompiling anything. POST
// /v1/instances/{name}/freeze writes the named instance's snapshot into the
// directory (409 when the server runs without one), and the scrape gains a
// ukc_store_mapped_bytes gauge for the resident mapped total.
//
//	ukserver -snapshot-dir /var/lib/ukc/snapshots
//	curl -X POST localhost:8080/v1/instances/fleet/freeze
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	ukc "repro"
	"repro/internal/dataio"
	"repro/internal/wire"
	"repro/obs"
	"repro/serve"
	"repro/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ukserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.Int("shards", 2, "independent shards per instance kind")
		workers  = flag.Int("workers", 2, "workers per shard (<0 = one per CPU)")
		queue    = flag.Int("queue", 64, "request-queue depth per shard")
		budget   = flag.Int64("cache-budget", 0, "cache byte budget per shard (0 = unlimited)")
		deadline = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
		parallel = flag.Int("parallel", 1, "solver worker count inside one request (<0 = all CPUs)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		trace    = flag.Bool("trace", false, "log every solver span (debug level) via the ukc.WithTracer hook")
		snapDir  = flag.String("snapshot-dir", "", "snapshot directory: warm-start from its *.ukc files and accept freeze requests into it (\"\" = off)")
		drainT   = flag.Duration("drain-timeout", 10*time.Second, "bound on the shutdown drain; expired drains abort in-flight requests (0 = wait indefinitely)")
		freezeOn = flag.Bool("freeze-on-shutdown", false, "freeze every instance into -snapshot-dir after a clean drain")

		traceRetain = flag.Int("trace-retain", 64, "flight recorder: retained erred/slow traces, served on /v1/traces (0 = recorder off)")
		traceSample = flag.Int("trace-sample", 8, "flight recorder: reservoir of fast clean traces kept as a baseline sample (-1 = none)")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "flight recorder: latency at or above which a trace is always retained (-1 = never)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *trace {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var tracer obs.Tracer
	if *trace {
		tracer = slogTracer{logger: logger}
	}

	opts := []serve.Option{
		serve.WithShards(*shards),
		serve.WithWorkersPerShard(*workers),
		serve.WithQueueDepth(*queue),
		serve.WithCacheBudget(*budget),
		serve.WithDefaultDeadline(*deadline),
		serve.WithDrainTimeout(*drainT),
		serve.WithFreezeOnShutdown(*freezeOn),
		serve.WithLogger(logger),
	}
	var fr *obs.FlightRecorder
	if *traceRetain > 0 {
		fr = obs.NewFlightRecorder(obs.FlightConfig{
			Capacity:  *traceRetain,
			Reservoir: *traceSample,
			Threshold: *traceSlow,
		})
	}
	gw, err := newGateway(*parallel, tracer, fr, *snapDir, opts...)
	if err != nil {
		return err
	}
	defer gw.close()

	srv := &http.Server{Addr: *addr, Handler: gw.handler(*pprofOn, logger)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ukserver: listening on %s (%d shards × %d workers per kind)\n", *addr, *shards, *workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain: stop the listener first (no new connections), then
		// drain the serving layer — admitted requests finish, late arrivals
		// are rejected 503 — bounded by -drain-timeout on both steps. A clean
		// drain with -freeze-on-shutdown persists every instance before exit.
		fmt.Fprintln(os.Stderr, "ukserver: draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainT)
		if *drainT <= 0 {
			shutCtx, cancel = context.WithCancel(context.Background())
		}
		defer cancel()
		httpErr := srv.Shutdown(shutCtx)
		return errors.Join(httpErr, gw.shutdown(shutCtx))
	}
}

// Request body caps. An instance document carries the whole instance; a
// workload request carries at most a center list and an n-length
// assignment, so its cap is far smaller. A body over its cap is answered
// 413 without being decoded further.
const (
	maxRegisterBody = 1 << 30
	maxWorkloadBody = 64 << 20
)

// gateway owns one serve.Server per instance kind plus the name→kind
// routing the HTTP layer needs (the generic serving layer is
// per-location-type; the wire protocol is not). regMu serializes
// registrations: name uniqueness spans BOTH kind registries, and the two
// servers cannot enforce a cross-registry invariant themselves — without
// it, two overlapping PUTs of different kinds could both succeed and the
// router would shadow one copy forever. Workload traffic never takes it.
type gateway struct {
	regMu   sync.Mutex
	eu      *serve.Server[ukc.Vec]
	fin     *serve.Server[int]
	fr      *obs.FlightRecorder // nil = flight recorder off (/v1/traces serves empty)
	httpLat *obs.Histogram      // request durations in seconds, observed by requestLog
	snapDir string              // "" = persistence off (no warm start, freeze returns 409)
	// Body caps: maxRegisterBody and maxWorkloadBody; tests lower them.
	registerLimit, workloadLimit int64
}

func newGateway(parallel int, tracer obs.Tracer, fr *obs.FlightRecorder, snapDir string, opts ...serve.Option) (*gateway, error) {
	solverOpts := []ukc.Option{ukc.WithParallelism(parallel)}
	if tracer != nil {
		solverOpts = append(solverOpts, ukc.WithTracer(tracer))
	}
	if snapDir != "" {
		// Both typed servers scan the same directory; each claims only the
		// snapshots of its own kind (serve.ErrSnapshotKind skip).
		opts = append(opts, serve.WithSnapshotDir(snapDir))
	}
	if fr != nil {
		// One recorder spans both kind servers: a trace is one request,
		// whichever kind served it.
		opts = append(opts, serve.WithFlightRecorder(fr))
	}
	eu, err := serve.New(ukc.NewSolver[ukc.Vec](solverOpts...), opts...)
	if err != nil {
		return nil, err
	}
	fin, err := serve.New(ukc.NewSolver[int](solverOpts...), opts...)
	if err != nil {
		eu.Close()
		return nil, err
	}
	return &gateway{
		eu: eu, fin: fin, fr: fr, httpLat: obs.NewHistogram(obs.DurationBuckets()...), snapDir: snapDir,
		registerLimit: maxRegisterBody, workloadLimit: maxWorkloadBody,
	}, nil
}

func (g *gateway) close() {
	g.eu.Close()
	g.fin.Close()
}

// shutdown drains both kind servers under ctx: admission flips to
// ErrDraining immediately, admitted work finishes (or is aborted when ctx
// expires), and a clean drain freezes instances when so configured.
func (g *gateway) shutdown(ctx context.Context) error {
	return errors.Join(g.eu.Shutdown(ctx), g.fin.Shutdown(ctx))
}

// retryAfter estimates how long the caller should wait before retrying a
// request for name, from the owning shard's live queue depth and execution
// latency.
func (g *gateway) retryAfter(name string) time.Duration {
	if _, ok := g.fin.Get(name); ok {
		return g.fin.RetryAfter(name)
	}
	return g.eu.RetryAfter(name)
}

// retryAfterHeader renders a drain- or overload-typed error's backoff hint
// as Retry-After delay-seconds (ceiling, floor 1 — the header has whole-
// second granularity).
func retryAfterHeader(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// kindOf reports which kind server holds name ("" when neither).
func (g *gateway) kindOf(name string) string {
	if _, ok := g.eu.Get(name); ok {
		return dataio.KindEuclidean
	}
	if _, ok := g.fin.Get(name); ok {
		return dataio.KindFinite
	}
	return ""
}

// workloads names the five workload endpoints, POST /v1/<name>.
var workloads = []string{"solve", "assign", "ecost", "sweep", "unassigned"}

func (g *gateway) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/instances/{name}", g.handleRegister)
	mux.HandleFunc("DELETE /v1/instances/{name}", g.handleUnregister)
	mux.HandleFunc("POST /v1/instances/{name}/freeze", g.handleFreeze)
	mux.HandleFunc("GET /v1/instances", g.handleList)
	for _, name := range workloads {
		mux.HandleFunc("POST /v1/"+name, g.workload(name))
	}
	mux.HandleFunc("GET /v1/traces", g.handleTraces)
	mux.HandleFunc("GET /v1/requests", g.handleRequests)
	mux.HandleFunc("GET /metrics", g.handlePromMetrics)
	return mux
}

// handler is the complete HTTP surface: the API mux, optionally the pprof
// handlers, all wrapped in the structured request log.
func (g *gateway) handler(pprofOn bool, logger *slog.Logger) http.Handler {
	mux := g.mux()
	if pprofOn {
		registerPprof(mux)
	}
	return requestLog(logger, g.httpLat, mux)
}

func (g *gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.registerLimit))
	if err != nil {
		httpError(w, bodyStatus(err), err)
		return
	}
	// Names are unique across BOTH kinds — the workload router resolves a
	// name to one kind, so a same-name instance of the other kind would be
	// shadowed and unreachable. The check and the register must be one
	// atomic step (regMu), or two overlapping PUTs could both pass it.
	g.regMu.Lock()
	defer g.regMu.Unlock()
	if g.kindOf(name) != "" {
		httpError(w, http.StatusConflict, fmt.Errorf("instance %q already registered", name))
		return
	}
	var head struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parsing instance document: %w", err))
		return
	}
	switch head.Kind {
	case dataio.KindEuclidean:
		inst, err := ukc.ReadCompiledInstance(bytes.NewReader(body))
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		err = g.eu.Register(r.Context(), name, inst)
		g.finishRegister(w, name, head.Kind, inst.N(), err)
	case dataio.KindFinite:
		inst, err := ukc.ReadCompiledFiniteInstance(bytes.NewReader(body))
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		err = g.fin.Register(r.Context(), name, inst)
		g.finishRegister(w, name, head.Kind, inst.N(), err)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown instance kind %q", head.Kind))
	}
}

func (g *gateway) finishRegister(w http.ResponseWriter, name, kind string, n int, err error) {
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, serve.ErrClosed) {
			status = http.StatusServiceUnavailable
		} else if g.kindOf(name) != "" {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, wire.Registered{Instance: name, Kind: kind, Points: n})
}

func (g *gateway) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Evaluate both unconditionally (no short-circuit): should a name ever
	// exist under both kinds, one DELETE removes every copy.
	ue, uf := g.eu.Unregister(name), g.fin.Unregister(name)
	if !ue && !uf {
		httpError(w, http.StatusNotFound, fmt.Errorf("instance %q not registered", name))
		return
	}
	writeJSON(w, http.StatusOK, wire.Unregistered{Instance: name, Unregistered: true})
}

// handleFreeze writes the named instance's zero-copy snapshot into the
// snapshot directory as <name>.ukc — the file a later boot's -snapshot-dir
// scan (or serve.RegisterSnapshot) reopens without recompiling. Freezing is
// idempotent: an existing snapshot is atomically replaced.
func (g *gateway) handleFreeze(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if g.snapDir == "" {
		httpError(w, http.StatusConflict, errors.New("no snapshot directory configured (start ukserver with -snapshot-dir)"))
		return
	}
	// The instance name becomes a file name; reject anything that could
	// escape the snapshot directory (the mux matches one path segment, but
	// percent-encoded separators decode through PathValue).
	if name == "" || name == "." || name == ".." || name != filepath.Base(name) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("instance name %q is not a valid snapshot name", name))
		return
	}
	path := filepath.Join(g.snapDir, name+serve.SnapshotExt)
	var (
		kind  string
		bytes int64
		err   error
	)
	// Get, not kindOf-then-Get: a concurrent DELETE between the two lookups
	// must land on 404, never on freezing a nil model.
	if c, ok := g.eu.Get(name); ok {
		kind = dataio.KindEuclidean
		bytes, err = store.Write(r.Context(), path, c)
	} else if c, ok := g.fin.Get(name); ok {
		kind = dataio.KindFinite
		bytes, err = store.Write(r.Context(), path, c)
	} else {
		httpError(w, http.StatusNotFound, fmt.Errorf("instance %q not registered", name))
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("freezing %q: %w", name, err))
		return
	}
	writeJSON(w, http.StatusOK, wire.Frozen{Bytes: bytes, Instance: name, Kind: kind, Path: path})
}

func (g *gateway) handleList(w http.ResponseWriter, _ *http.Request) {
	out := wire.List{Instances: []wire.Instance{}}
	for _, n := range g.eu.Names() {
		out.Instances = append(out.Instances, wire.Instance{Name: n, Kind: dataio.KindEuclidean})
	}
	for _, n := range g.fin.Names() {
		out.Instances = append(out.Instances, wire.Instance{Name: n, Kind: dataio.KindFinite})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePromMetrics serves both kind servers' Collect walks as one
// Prometheus text exposition document, each series labeled with its kind,
// plus the process-wide series that span both kinds and so carry no kind
// label: the store gauge, the Go runtime gauges and GC pause histogram,
// and the gateway HTTP latency histogram.
func (g *gateway) handlePromMetrics(w http.ResponseWriter, _ *http.Request) {
	pc := newPromCollector()
	pc.collect(dataio.KindEuclidean, g.eu.Collect)
	pc.collect(dataio.KindFinite, g.fin.Collect)
	pc.sample("ukc_store_mapped_bytes", nil, float64(store.MappedBytes()))
	collectRuntime(pc)
	writeHistogram(pc, "ukc_http_request_duration_seconds", nil, g.httpLat.Snapshot())
	var buf bytes.Buffer
	if err := pc.write(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// workload is the handler of the named workload: it decodes the request,
// runs it on the kind server owning the named instance (runWorkload), and
// maps serving errors to HTTP status codes.
func (g *gateway) workload(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req wire.Request
		if err := decodeWorkload(http.MaxBytesReader(w, r.Body, g.workloadLimit), &req); err != nil {
			httpError(w, bodyStatus(err), err)
			return
		}
		var (
			out any
			err error
		)
		switch g.kindOf(req.Instance) {
		case dataio.KindEuclidean:
			out, err = runWorkload(g.eu, r.Context(), name, req)
		case dataio.KindFinite:
			out, err = runWorkload(g.fin, r.Context(), name, req)
		default:
			err = fmt.Errorf("%w: %q", serve.ErrNotFound, req.Instance)
		}
		if err != nil {
			// Overload and drain are retryable-by-contract: tell the caller
			// when. The 429 hint tracks the live backlog (queue depth ×
			// observed execution latency); a draining server is gone within
			// the drain timeout, so a flat minimum suffices.
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				w.Header().Set("Retry-After", retryAfterHeader(g.retryAfter(req.Instance)))
			case errors.Is(err, serve.ErrDraining):
				w.Header().Set("Retry-After", "1")
			}
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// decodeWorkload decodes a body that must hold exactly one JSON object
// with only wire.Request's fields. An unknown field (one an older client
// still sends, say) and any data after the object are errors, so a request
// is never served with part of its input ignored.
func decodeWorkload(body io.Reader, req *wire.Request) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return errors.New("data after the request object")
		}
		return fmt.Errorf("data after the request object: %w", err)
	}
	return nil
}

// bodyStatus maps a request-body read or decode error to its status: 413
// when the body exceeded its cap, 400 for malformed input.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, serve.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrPanicked):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusUnprocessableEntity
	}
}

// runWorkload is the one adapter between the wire schema and the typed
// serve API, instantiated once per instance kind: it runs the named
// workload for req on srv and returns the response body. The body is
// meaningful only when the error is nil.
func runWorkload[P any](srv *serve.Server[P], ctx context.Context, name string, req wire.Request) (any, error) {
	d := req.Deadline()
	switch name {
	case "solve":
		resp, err := srv.Solve(ctx, serve.SolveRequest{Instance: req.Instance, K: req.K, Deadline: d})
		res := resp.Result
		return wire.SolveResponse[[]P]{
			Assign: res.Assign, Centers: res.Centers, CertainRadius: res.CertainRadius, Ecost: res.Ecost,
			EcostUnassigned: res.EcostUnassigned, EffectiveEps: res.EffectiveEps, Stats: statsOf(resp.Stats),
		}, err
	case "unassigned":
		resp, err := srv.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: req.Instance, K: req.K, Deadline: d})
		return wire.UnassignedResponse[[]P]{Centers: resp.Centers, Ecost: resp.Ecost, Stats: statsOf(resp.Stats)}, err
	}
	centers, err := wire.DecodeCenters[P](req.Centers)
	if err != nil {
		return nil, err
	}
	switch name {
	case "assign":
		resp, err := srv.Assign(ctx, serve.AssignRequest[P]{Instance: req.Instance, Centers: centers, Deadline: d})
		return wire.AssignResponse{Assign: resp.Assign, Stats: statsOf(resp.Stats)}, err
	case "ecost":
		resp, err := srv.Ecost(ctx, serve.EcostRequest[P]{Instance: req.Instance, Centers: centers, Assign: req.Assign, Deadline: d})
		return wire.EcostResponse{Ecost: resp.Ecost, Stats: statsOf(resp.Stats)}, err
	default: // "sweep"
		resp, err := srv.EcostSweep(ctx, serve.EcostSweepRequest[P]{Instance: req.Instance, Centers: centers, Deadline: d})
		return wire.SweepResponse[[]int]{Snapped: resp.Snapped, Stats: statsOf(resp.Stats), Sweep: resp.Sweep}, err
	}
}

// statsOf renders a request's serving telemetry in milliseconds, at
// microsecond resolution.
func statsOf(s serve.RequestStats) wire.Stats {
	return wire.Stats{
		Shard:    s.Shard,
		QueueMS:  float64(s.Queue.Microseconds()) / 1000,
		ExecMS:   float64(s.Exec.Microseconds()) / 1000,
		CacheHit: s.CacheHit,
	}
}

// writeJSON answers status with v's JSON and the newline json.Encoder
// ends a value with. v is encoded before the header is written: a value
// encoding/json refuses (a +Inf cost, say) answers 422 with the encoder's
// error instead of a 200 with an empty body. Not 500: the same request
// always yields the same value, so a client retry could only fail again.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusUnprocessableEntity
		body, _ = json.Marshal(wire.Error{Message: fmt.Sprintf("encoding response: %v", err)}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.Error{Message: err.Error()})
}
