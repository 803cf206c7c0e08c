// Package serve is the multi-instance serving layer over the compiled
// uncertain k-center core: a registry of named compiled instances,
// hash-sharded across independent worker pools, with request admission,
// per-request deadlines and byte-budget eviction of the memoized caches.
//
// Where a ukc.Solver answers one call on one instance, a Server is a
// long-lived process component: instances are registered once (compiled
// eagerly, so registration is also validation), then many concurrent
// callers issue typed requests — Solve, Assign, Ecost, EcostSweep,
// SolveUnassigned — against them by name. The expensive per-instance state
// (the flat arena and both surrogate kinds) is built once and shared by
// every request, which is what makes serving heavy repeated traffic cheap
// (DESIGN.md §4a, §7).
//
// Each shard enforces:
//
//   - admission control — a bounded queue; a request arriving at a full
//     queue fails fast with ErrOverloaded instead of building backlog;
//   - deadlines — a per-request (or server-default) deadline layered on the
//     caller's context, covering queue wait plus execution; a request that
//     expires while queued is failed with context.DeadlineExceeded without
//     occupying a worker, and one that expires mid-solve aborts at the
//     pipeline's next cancellation check;
//   - byte-budget eviction — Compiled.CacheBytes meters every instance's
//     memoized caches, and when a completed request pushes the shard over
//     WithCacheBudget, the least-recently-used instances' caches are
//     dropped (Compiled.DropCaches) until it fits. Eviction never touches
//     the compiled arena: an evicted instance recomputes caches lazily on
//     its next request, bit-identically (§4a — every cache build is
//     deterministic).
//
// All admission, execution and eviction decisions are per shard, so a hot
// or thrashing shard cannot stall the others. Each shard observes every
// dequeued request's queue wait and end-to-end duration, and every
// executed request's execution, into lock-free obs histograms, which merge
// bucket-wise across shards and instance kinds. Metrics() returns a
// snapshot — queue depths, cache bytes, hit/miss, latency histograms — for
// tests and in-process callers; Collect walks the same state for exporters
// (cmd/ukserver serves it on GET /metrics).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ukc "repro"
	"repro/internal/faults"
	"repro/internal/lru"
	"repro/obs"
	"repro/store"
)

// ErrOverloaded is returned when the target shard's request queue is full:
// the request was rejected at admission and never queued. Callers decide
// the retry policy — the server never blocks on a full queue.
var ErrOverloaded = errors.New("serve: shard queue full")

// ErrClosed is returned for requests and registrations after shutdown has
// completed.
var ErrClosed = errors.New("serve: server closed")

// ErrDraining is returned for requests and registrations arriving while a
// Shutdown/Close drain is in progress: admission has stopped, but
// already-admitted work is still completing. Callers should retry against
// another replica (cmd/ukserver maps it to 503 with a Retry-After header).
var ErrDraining = errors.New("serve: server draining")

// ErrNotFound is the sentinel wrapped by request errors naming an
// unregistered instance; match with errors.Is.
var ErrNotFound = errors.New("serve: instance not registered")

// ErrPanicked is the sentinel wrapped by *PanicError — the typed response a
// request receives when its workload panicked. Match with errors.Is; the
// concrete *PanicError (via errors.As) carries the recovered value and
// stack. The panic is confined to the one request: the shard worker
// recovers, counts it (Panicked in Metrics), and serves the next request
// from intact shard state.
var ErrPanicked = errors.New("serve: workload panicked")

// PanicError is the typed error a panicking workload turns into: the
// recovered panic value plus the stack captured at the recovery point. It
// wraps ErrPanicked.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured in the recovering worker
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: workload panicked: %v", e.Value)
}

func (e *PanicError) Unwrap() error { return ErrPanicked }

// Server lifecycle states, guarded by closeMu. Admission is only possible
// in stateRunning; the draining window is when Shutdown is waiting for
// admitted work to finish.
const (
	stateRunning = iota
	stateDraining
	stateClosed
)

// entry is one registered instance: the compiled model (metered and
// evicted) and an Instance pinned to it (what the solver consumes).
// bytes is the shard's last accounting of c.CacheBytes(), owned by the
// shard mutex. buildDur accumulates the instance's memoized cache-build
// durations — fed by tracer, which execute installs into every request
// context so the core's build spans land here; a post-eviction rebuild is
// one more observation.
type entry[P any] struct {
	name     string
	inst     ukc.Instance[P]
	c        *ukc.Compiled[P]
	snap     *store.Snapshot // non-nil when c aliases a mapped snapshot
	bytes    int64
	buildDur *obs.Histogram
	tracer   obs.Tracer
}

// entryTracer funnels the spans of one registered instance into the shard's
// metrics: cache-build spans (surrogate.build.*) into the instance's
// build-duration histogram, and the local-search prune summary (ls.prune)
// into the shard's scan/prune counters. Everything else is ignored. A two-pointer struct converts to obs.Tracer without allocating,
// and the histogram and counters are lock-free, so the per-span cost is a
// name check plus a few atomics.
type entryTracer[P any] struct {
	ent *entry[P]
	m   *shardCounters
}

func (et entryTracer[P]) Span(name string, _ time.Time, dur time.Duration, attrs []obs.Attr) {
	switch {
	case strings.HasPrefix(name, "surrogate.build"):
		et.ent.buildDur.Observe(dur.Seconds())
	case name == "ls.prune":
		for _, a := range attrs {
			switch a.Key {
			case "scanned":
				et.m.pruneScanned.Add(uint64(a.Val))
			case "pruned":
				et.m.prunePruned.Add(uint64(a.Val))
			case "excess":
				et.m.pruneExcess.Add(uint64(a.Val))
			}
		}
	}
}

// task is one admitted request: the deadline-carrying context, the target
// entry, the workload closure, and the completion signal. err and stats are
// written by the executing worker before done is closed.
type task[P any] struct {
	ctx   context.Context
	ent   *entry[P]
	fn    func(ctx context.Context) error
	enq   time.Time
	at    *obs.ActiveTrace // nil when the flight recorder is off
	ifr   *inflightReq
	stats RequestStats
	err   error
	done  chan struct{}
}

// shard is one independent serving partition: its slice of the registry,
// its recency list and cache accounting, its bounded queue, and its
// metrics. entries, rec, cacheBytes and the entries' bytes fields are owned
// by mu; counters are atomic; the queue channel is never closed until
// server Close.
type shard[P any] struct {
	id int

	mu         sync.Mutex
	entries    map[string]*entry[P]
	rec        *lru.List[string]
	cacheBytes int64

	queue chan *task[P]
	m     shardCounters
	lat   shardLatency
}

// Server is the sharded serving layer; build one with New, register
// instances, then issue requests from any number of goroutines. A Server is
// goroutine-safe; Close/Shutdown drain in-flight work and reject everything
// after, and are idempotent and safe to race with each other and with
// Register.
type Server[P any] struct {
	solver *ukc.Solver[P]
	cfg    config
	shards []*shard[P]

	closeMu sync.RWMutex // guards state and queue closes vs admission
	state   int
	wg      sync.WaitGroup

	// stopCtx is canceled when a drain deadline expires: every in-flight
	// request's context is derived under it (see do), so aborting the drain
	// cancels the remaining work at the pipeline's next ctx check.
	stopCtx    context.Context
	stopCancel context.CancelFunc

	// drainDone is closed when the first Shutdown/Close finishes; drainErr
	// (written before the close) is its result, returned verbatim by every
	// later or concurrent call.
	drainDone chan struct{}
	drainErr  error

	// inflight is the live request table (see inflight.go): every admitted
	// request from admission until completion or queue abandonment.
	inflight *inflightTable

	// Snapshot-hygiene counters (see snapshot.go): corrupt snapshots
	// quarantined, and stale write temporaries swept, since server start.
	quarantined atomic.Uint64
	tmpSwept    atomic.Uint64
}

// New builds a server running every request through solver (nil selects
// ukc.NewSolver[P]()'s per-space defaults) and starts its shard worker
// pools. The solver is shared by all workers — ukc.Solver is immutable and
// goroutine-safe — so its options (rule, surrogate, WithParallelism for
// intra-request fan-out) apply uniformly.
func New[P any](solver *ukc.Solver[P], opts ...Option) (*Server[P], error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if solver == nil {
		solver = ukc.NewSolver[P]()
	}
	s := &Server[P]{solver: solver, cfg: cfg, shards: make([]*shard[P], cfg.shards), drainDone: make(chan struct{}), inflight: newInflightTable()}
	s.stopCtx, s.stopCancel = context.WithCancel(context.Background())
	for i := range s.shards {
		sh := &shard[P]{
			id:      i,
			entries: make(map[string]*entry[P]),
			rec:     lru.New[string](),
			queue:   make(chan *task[P], cfg.queueDepth),
			lat:     newShardLatency(),
		}
		s.shards[i] = sh
		for w := 0; w < cfg.workers; w++ {
			s.wg.Add(1)
			go s.worker(sh)
		}
	}
	if cfg.snapshotDir != "" {
		if err := s.warmStart(cfg.snapshotDir); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// shardIndex hashes an instance name (FNV-1a) onto a shard. The placement
// is stable for the server's lifetime: registry lookups, admission and
// eviction for one instance always meet the same shard.
func shardIndex(name string, n int) int {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return int(h % uint64(n))
}

func (s *Server[P]) shardFor(name string) *shard[P] {
	return s.shards[shardIndex(name, len(s.shards))]
}

// Register compiles inst (one validation + flattening pass — a rejected
// model never enters the registry) and adds it under name to its shard.
// Registering an already-registered name fails; Unregister first to
// replace. If inst was built by a constructor its compiled model is shared,
// so a caller-side Compile is not repeated.
func (s *Server[P]) Register(ctx context.Context, name string, inst ukc.Instance[P]) error {
	if name == "" {
		return fmt.Errorf("serve: empty instance name")
	}
	if err := s.admissible(); err != nil {
		return err
	}
	c, err := inst.Compile(ctx)
	if err != nil {
		return fmt.Errorf("serve: compiling %q: %w", name, err)
	}
	return s.addEntry(name, c, nil)
}

// admissible maps the lifecycle state to the typed rejection for new work
// (nil while running).
func (s *Server[P]) admissible() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.admissibleLocked()
}

func (s *Server[P]) admissibleLocked() error {
	switch s.state {
	case stateDraining:
		return ErrDraining
	case stateClosed:
		return ErrClosed
	}
	return nil
}

// addEntry inserts a compiled model into its shard under name — the shared
// tail of Register (compile path) and RegisterSnapshot (zero-copy path,
// which passes the snapshot whose bytes the model aliases).
func (s *Server[P]) addEntry(name string, c *ukc.Compiled[P], snap *store.Snapshot) error {
	pinned, err := ukc.InstanceOf(c)
	if err != nil {
		return err
	}
	// Registration must not race past a concurrent Shutdown: holding the
	// close guard across the insert means an entry is either registered
	// before the drain starts (and is drained/frozen with the rest) or the
	// registration fails typed — never a silent post-close insert. The
	// guard is released before enforceBudget, whose DropCaches calls can
	// block on an in-flight cache build.
	s.closeMu.RLock()
	if err := s.admissibleLocked(); err != nil {
		s.closeMu.RUnlock()
		return err
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	if _, dup := sh.entries[name]; dup {
		sh.mu.Unlock()
		s.closeMu.RUnlock()
		return fmt.Errorf("serve: instance %q already registered", name)
	}
	ent := &entry[P]{name: name, inst: pinned, c: c, snap: snap, bytes: c.CacheBytes(), buildDur: obs.NewHistogram(obs.DurationBuckets()...)}
	ent.tracer = entryTracer[P]{ent: ent, m: &sh.m}
	sh.entries[name] = ent
	sh.cacheBytes += ent.bytes
	sh.rec.Touch(name)
	sh.mu.Unlock()
	s.closeMu.RUnlock()
	s.enforceBudget(sh)
	return nil
}

// Unregister removes name from the registry, reporting whether it was
// present. In-flight requests against it complete normally — they hold the
// entry — and its compiled model is reclaimed when the last holder drops
// it.
func (s *Server[P]) Unregister(name string) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent, ok := sh.entries[name]
	if !ok {
		return false
	}
	delete(sh.entries, name)
	sh.rec.Remove(name)
	sh.cacheBytes -= ent.bytes
	return true
}

// Get returns the compiled model registered under name. Callers may solve
// against it directly (bypassing admission) or inspect its CacheBytes; they
// must not mutate it. The model remains subject to the shard's eviction —
// caches may be dropped and rebuilt underneath, which is always
// result-transparent.
func (s *Server[P]) Get(name string) (*ukc.Compiled[P], bool) {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent, ok := sh.entries[name]
	if !ok {
		return nil, false
	}
	return ent.c, true
}

// Names returns all registered instance names, sorted.
func (s *Server[P]) Names() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name := range sh.entries {
			out = append(out, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// do is the request path every workload shares: resolve the instance,
// layer the deadline, start trace participation, admit onto the shard queue
// (fail fast with ErrOverloaded when full), and wait for a worker to run
// fn on the instance. The returned stats are meaningful even on error
// (Shard is always set; Queue/Exec when the task executed). workload names
// the request kind in the in-flight table. On any error the result is R's
// zero value: a request abandoned on its deadline returns while the worker
// may still be writing fn's result, so it is read only after a nil error.
func do[P, R any](s *Server[P], ctx context.Context, workload, instance string, deadline time.Duration, fn func(context.Context, ukc.Instance[P]) (R, error)) (R, RequestStats, error) {
	var res, zero R
	if ctx == nil {
		ctx = context.Background()
	}
	sh := s.shardFor(instance)
	st := RequestStats{Shard: sh.id}

	sh.mu.Lock()
	ent, ok := sh.entries[instance]
	sh.mu.Unlock()
	if !ok {
		return zero, st, fmt.Errorf("%w: %q", ErrNotFound, instance)
	}

	if deadline <= 0 {
		deadline = s.cfg.deadline
	}
	cancel := func() {}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	defer cancel()

	// Derive the task context under the server's stop context: when a drain
	// deadline expires, Shutdown cancels stopCtx and every in-flight request
	// aborts at its pipeline's next cancellation check instead of holding the
	// drain open. AfterFunc costs nothing until stopCtx fires (one stopper
	// registration per request, released on the deferred stop()).
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	stop := context.AfterFunc(s.stopCtx, dcancel)
	defer stop()

	// Trace participation: the incoming trace context (parsed from the
	// caller's traceparent by the gateway, or planted by an in-process
	// recorder-sharing client) makes this request's spans part of the
	// caller's trace; with no recorder configured `at` is nil and every
	// trace call below is a free no-op.
	at := s.cfg.recorder.Start(obs.TraceFromContext(ctx), "serve.request", instance)

	t := &task[P]{
		ctx:  dctx,
		ent:  ent,
		fn:   func(c context.Context) (err error) { res, err = fn(c, ent.inst); return err },
		enq:  time.Now(),
		at:   at,
		done: make(chan struct{}),
	}
	t.ifr = s.inflight.add(workload, instance, sh.id, at.TraceID(), t.enq)

	// Admission under the close guard: once Shutdown leaves stateRunning, no
	// new task can enter a queue, so the queues Shutdown closes are the whole
	// remaining workload and the worker drain is complete.
	s.closeMu.RLock()
	if err := s.admissibleLocked(); err != nil {
		s.closeMu.RUnlock()
		s.inflight.remove(t.ifr)
		at.Finish(err)
		return zero, st, err
	}
	select {
	case sh.queue <- t:
		s.closeMu.RUnlock()
		sh.m.admitted.Add(1)
	default:
		s.closeMu.RUnlock()
		sh.m.rejected.Add(1)
		s.inflight.remove(t.ifr)
		at.Finish(ErrOverloaded)
		return zero, st, ErrOverloaded
	}

	select {
	case <-t.done:
		at.Finish(t.err)
		if t.err != nil {
			return zero, t.stats, t.err
		}
		return res, t.stats, nil
	case <-dctx.Done():
		// Deadline or caller cancellation while queued (or mid-execution —
		// the worker aborts at the pipeline's next ctx check and discards
		// its partial work; shard state is never touched by a failed run).
		// Finishing the trace here completes this participant immediately;
		// anything the abandoned worker records later is dropped by the
		// recorder's completion flag.
		st.Queue = time.Since(t.enq)
		err := context.Cause(dctx)
		at.Finish(err)
		return zero, st, err
	}
}

// worker is one shard-pool goroutine: it executes queued tasks until Close
// closes the queue, then drains what remains (their contexts decide whether
// the drained work still runs or expires).
func (s *Server[P]) worker(sh *shard[P]) {
	defer s.wg.Done()
	for t := range sh.queue {
		s.execute(sh, t)
	}
}

// execute runs one task: expired-in-queue fast path, recency touch, the
// workload itself, then cache re-accounting and eviction.
func (s *Server[P]) execute(sh *shard[P], t *task[P]) {
	defer close(t.done)
	defer s.inflight.remove(t.ifr)
	t.stats.Queue = time.Since(t.enq)
	// The queue wait becomes a span under the request root — recorded even
	// for requests that then expire, err or panic, so a retained trace
	// always shows where the time went.
	t.at.Record(t.at.NewSpanID(), t.at.RootID(), "serve.queue", t.ent.name, t.enq, t.stats.Queue)
	if err := t.ctx.Err(); err != nil {
		// The context died while the task sat in the queue: fail it
		// without running — the worker moves straight to the next request,
		// and no shard state has been touched. Only true deadline expiry
		// counts as Expired; a caller disconnect (context.Canceled — every
		// dropped HTTP connection in ukserver) is Canceled, so Expired
		// stays a faithful deadline-tuning signal and Failed is reserved
		// for genuine execution errors.
		if errors.Is(err, context.DeadlineExceeded) {
			sh.m.expired.Add(1)
		} else {
			sh.m.canceled.Add(1)
		}
		sh.lat.observeQueued(t.stats.Queue)
		t.err = err
		return
	}

	sh.mu.Lock()
	if sh.entries[t.ent.name] == t.ent {
		sh.rec.Touch(t.ent.name)
	}
	sh.mu.Unlock()

	buildsBefore := t.ent.c.CacheBuilds()
	t.ifr.markExec()
	// The exec span's ID is drawn before execution so the solver's spans can
	// be parented under it; the span itself is recorded after, once its
	// duration is known. With the recorder off every call here is a nil-check
	// no-op and the tracer merge is skipped — zero extra allocations.
	execID := t.at.NewSpanID()
	reqTracer := t.ent.tracer
	if tt := t.at.Tracer(execID); tt != nil {
		reqTracer = obs.Multi(reqTracer, tt)
	}
	start := time.Now()
	// The entry's tracer rides the request context so any cache build the
	// core performs during this execution (cold start or post-eviction
	// rebuild) lands in this instance's build-duration histogram; a solver
	// tracer, if one is installed, merges with it rather than being
	// displaced.
	t.err = runGuarded(t.fn, obs.NewContext(t.ctx, reqTracer))
	t.stats.Exec = time.Since(start)
	t.at.Record(execID, t.at.RootID(), "serve.exec", t.ent.name, start, t.stats.Exec)
	// A warm-cache hit is a request during which no memoized cache was
	// built. The monotonic build counter (never decremented, not even by
	// eviction) makes this immune to the race a byte-delta comparison has
	// with a concurrent eviction zeroing the bytes mid-request.
	t.stats.CacheHit = t.ent.c.CacheBuilds() == buildsBefore

	switch {
	case t.err == nil:
		sh.m.completed.Add(1)
	case errors.Is(t.err, ErrPanicked):
		sh.m.panicked.Add(1)
	case errors.Is(t.err, context.Canceled):
		sh.m.canceled.Add(1)
	case errors.Is(t.err, context.DeadlineExceeded):
		sh.m.expired.Add(1)
	default:
		sh.m.failed.Add(1)
	}
	if t.stats.CacheHit {
		sh.m.hits.Add(1)
	} else {
		sh.m.misses.Add(1)
	}
	sh.lat.observe(t.stats.Queue, t.stats.Exec)

	after := t.ent.c.CacheBytes()
	sh.mu.Lock()
	if cur, ok := sh.entries[t.ent.name]; ok && cur == t.ent {
		sh.cacheBytes += after - t.ent.bytes
		t.ent.bytes = after
		// The `after` snapshot can be stale against a concurrent eviction
		// (taken outside the lock), momentarily overstating the shard
		// total. Re-inserting the entry whenever it carries accounted
		// bytes upholds the invariant that repairs this: accounted > 0 ⇒
		// present in the recency list ⇒ a later eviction pass subtracts
		// exactly what was accounted and re-reads the truth.
		if after > 0 {
			sh.rec.Touch(t.ent.name)
		}
	}
	sh.mu.Unlock()
	s.enforceBudget(sh)
}

// runGuarded runs one workload with panic isolation: a panic anywhere under
// fn — a solver bug, bad data the validators missed, an injected fault — is
// recovered here, in the worker goroutine, and converted to a *PanicError
// carrying the recovered value and the stack captured at the recovery point.
// The panic is thereby confined to its one request: the worker's loop, the
// shard's locks and the sibling requests are untouched. The faults.Fire hook
// is inside the guarded region, so injected panics exercise exactly the
// recovery path a genuine one would take (and injected errors surface as
// ordinary workload failures).
func runGuarded(fn func(ctx context.Context) error, ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faults.Fire("serve.exec"); err != nil {
		return err
	}
	return fn(ctx)
}

// enforceBudget brings the shard back under its cache budget: while over,
// the least-recently-used entries are selected as victims under sh.mu
// (optimistically accounted as dropped), and their DropCaches calls run
// AFTER the mutex is released — a drop can block on the memo mutex of an
// in-flight cache build (potentially a long surrogate construction), and
// that wait must stall only this worker, never the shard's admission,
// registry or metrics paths. Dropping is result-transparent (deterministic
// lazy rebuild) and never invalidates in-flight consumers, which hold
// their own references to the immutable caches. An evicted instance
// leaves the recency list until its next request re-enters it.
func (s *Server[P]) enforceBudget(sh *shard[P]) {
	if s.cfg.budget <= 0 {
		return
	}
	sh.mu.Lock()
	var victims []*entry[P]
	for sh.cacheBytes > s.cfg.budget {
		name, ok := sh.rec.Oldest()
		if !ok {
			break
		}
		sh.rec.Remove(name)
		ent := sh.entries[name]
		if ent == nil || ent.bytes == 0 {
			// Nothing accounted to free (an idle entry, or one already
			// being evicted): popping it suffices — a no-op DropCaches
			// would only inflate the evictions counter. It re-enters the
			// recency list on its next request.
			continue
		}
		sh.cacheBytes -= ent.bytes
		ent.bytes = 0
		victims = append(victims, ent)
	}
	sh.mu.Unlock()
	for _, ent := range victims {
		ent.c.DropCaches()
		sh.m.evictions.Add(1)
		// Re-sync rather than trust the optimistic zero: a concurrent
		// request on another worker may already be rebuilding what was
		// just dropped. A rebuilt entry re-enters the recency list here —
		// its bytes are back in the shard total, so it must stay an
		// eviction candidate even if no later request ever touches it
		// (execute's accounting maintains the same accounted-⇒-listed
		// invariant for its own stale-snapshot window).
		if after := ent.c.CacheBytes(); after != 0 {
			sh.mu.Lock()
			if cur, ok := sh.entries[ent.name]; ok && cur == ent {
				sh.cacheBytes += after - ent.bytes
				ent.bytes = after
				sh.rec.Touch(ent.name)
			}
			sh.mu.Unlock()
		}
	}
}

// Metrics returns a point-in-time snapshot of every shard: registry and
// queue occupancy, cache accounting, the request counters, and the latency
// histograms of every request each shard executed (Totals merges them).
func (s *Server[P]) Metrics() Metrics {
	out := Metrics{
		Shards:               make([]ShardMetrics, len(s.shards)),
		SnapshotsQuarantined: s.quarantined.Load(),
		TempFilesSwept:       s.tmpSwept.Load(),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		instances := len(sh.entries)
		bytes := sh.cacheBytes
		per := make([]InstanceMetrics, 0, len(sh.entries))
		for _, ent := range sh.entries {
			per = append(per, InstanceMetrics{
				Name:        ent.name,
				CacheBytes:  ent.bytes,
				CacheBuilds: ent.buildDur.Snapshot(),
			})
		}
		sh.mu.Unlock()
		sort.Slice(per, func(a, b int) bool { return per[a].Name < per[b].Name })
		out.Shards[i] = ShardMetrics{
			Shard:        sh.id,
			Instances:    instances,
			QueueDepth:   len(sh.queue),
			QueueCap:     cap(sh.queue),
			CacheBytes:   bytes,
			CacheBudget:  s.cfg.budget,
			Admitted:     sh.m.admitted.Load(),
			Rejected:     sh.m.rejected.Load(),
			Completed:    sh.m.completed.Load(),
			Failed:       sh.m.failed.Load(),
			Canceled:     sh.m.canceled.Load(),
			Expired:      sh.m.expired.Load(),
			Panicked:     sh.m.panicked.Load(),
			CacheHits:    sh.m.hits.Load(),
			CacheMisses:  sh.m.misses.Load(),
			Evictions:    sh.m.evictions.Load(),
			PruneScanned: sh.m.pruneScanned.Load(),
			PrunePruned:  sh.m.prunePruned.Load(),
			PruneExcess:  sh.m.pruneExcess.Load(),
			QueueLatency: sh.lat.queue.Snapshot(),
			ExecLatency:  sh.lat.exec.Snapshot(),
			TotalLatency: sh.lat.total.Snapshot(),
			PerInstance:  per,
		}
	}
	return out
}

// Shutdown gracefully drains the server: admission stops immediately (new
// requests and registrations fail with ErrDraining, then ErrClosed once the
// drain completes), already-admitted work runs to completion, and the worker
// pools exit. If ctx expires before the drain finishes, the remaining
// in-flight requests are canceled (their callers see context.Canceled /
// their deadline error) and Shutdown still waits for the workers to observe
// the cancellation before returning ctx's error.
//
// With WithFreezeOnShutdown and a snapshot dir configured, every registered
// instance is frozen to a `.ukc` snapshot after a clean drain (skipped when
// the drain was aborted — a torn freeze set is worse than none; the writer's
// tmp+rename discipline keeps each individual file atomic regardless).
//
// Shutdown is idempotent and safe to call from any number of goroutines
// concurrently (and to race with Close): one caller performs the drain,
// the rest wait for it and return the same result.
func (s *Server[P]) Shutdown(ctx context.Context) error {
	s.closeMu.Lock()
	if s.state != stateRunning {
		s.closeMu.Unlock()
		<-s.drainDone
		return s.drainErr
	}
	s.state = stateDraining
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.closeMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: cancel every in-flight request via the stop
		// context, then wait again — the workers exit as soon as each
		// workload observes its cancellation, so this second wait is bounded
		// by the pipelines' cancellation-check granularity.
		s.stopCancel()
		<-done
		drainErr = fmt.Errorf("serve: drain aborted: %w", ctx.Err())
	}

	if drainErr == nil && s.cfg.freezeOnShutdown && s.cfg.snapshotDir != "" {
		if err := s.freezeAll(); err != nil {
			drainErr = fmt.Errorf("serve: freeze on shutdown: %w", err)
		}
	}

	s.closeMu.Lock()
	s.state = stateClosed
	s.closeMu.Unlock()
	s.stopCancel()
	s.drainErr = drainErr
	close(s.drainDone)
	return drainErr
}

// Close drains the server like Shutdown under the configured drain timeout
// (WithDrainTimeout; the default waits indefinitely, preserving the
// historical Close contract that in-flight work always completes).
// Idempotent and safe to race with Shutdown, Register and requests.
func (s *Server[P]) Close() {
	ctx := context.Background()
	if s.cfg.drainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.drainTimeout)
		defer cancel()
	}
	_ = s.Shutdown(ctx)
}

// RetryAfter estimates how long a caller rejected at instance's shard
// (ErrOverloaded) should wait before retrying: the time for the shard's
// worker pool to work off its current queue at the shard's median
// execution latency (the exec histogram's p50). It never returns less than
// 50ms, the whole answer on an idle shard or one with no executed request
// yet. cmd/ukserver surfaces it as the Retry-After header on 429s.
func (s *Server[P]) RetryAfter(instance string) time.Duration {
	const floor = 50 * time.Millisecond
	sh := s.shardFor(instance)
	depth := len(sh.queue)
	if depth == 0 {
		return floor
	}
	p50 := sh.lat.exec.Snapshot().Quantile(0.5)
	return max(floor, time.Duration(p50*float64(depth)/float64(s.cfg.workers)*float64(time.Second)))
}
