package serve

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/par"
	"repro/obs"
)

// config is the resolved server configuration. Defaults: one shard, one
// worker per shard, a 64-request queue per shard, no cache budget
// (eviction off), no default deadline, indefinite drain, no freeze on
// shutdown, and the process-default slog logger.
type config struct {
	shards           int
	workers          int
	queueDepth       int
	budget           int64
	deadline         time.Duration
	snapshotDir      string
	drainTimeout     time.Duration
	freezeOnShutdown bool
	logger           *slog.Logger
	recorder         *obs.FlightRecorder
}

func defaultConfig() config {
	return config{shards: 1, workers: 1, queueDepth: 64, logger: slog.Default()}
}

func (c config) validate() error {
	if c.shards < 1 {
		return fmt.Errorf("serve: %d shards", c.shards)
	}
	if c.queueDepth < 1 {
		return fmt.Errorf("serve: queue depth %d", c.queueDepth)
	}
	return nil
}

// Option configures a Server; pass them to New.
type Option func(*config)

// WithShards sets the number of independent shards the registry is
// hash-partitioned into (default 1). Each shard owns its own worker pool,
// request queue, byte budget and metrics, and shards never contend with
// each other: an overloaded or cache-thrashing shard cannot stall the rest.
func WithShards(s int) Option {
	return func(c *config) { c.shards = s }
}

// WithWorkersPerShard sets each shard's worker-pool size, following the
// WithParallelism convention: 0 or 1 means one worker, n > 1 means n
// workers, negative n means one worker per logical CPU. Combine with the
// solver's own WithParallelism to split cores between concurrent requests
// and intra-request parallelism.
func WithWorkersPerShard(n int) Option {
	return func(c *config) {
		switch {
		case n == 0:
			c.workers = 1
		case n < 0:
			c.workers = par.Workers(0)
		default:
			c.workers = n
		}
	}
}

// WithQueueDepth bounds each shard's request queue (default 64). A request
// arriving at a full queue is rejected immediately with ErrOverloaded —
// admission control fails fast instead of building unbounded backlog.
func WithQueueDepth(d int) Option {
	return func(c *config) { c.queueDepth = d }
}

// WithCacheBudget bounds the bytes of memoized derived state (the
// surrogate slices, metered by Compiled.CacheBytes — DESIGN.md
// §4a) each shard may hold across its registered instances; 0 (the
// default) disables eviction. When a completed request pushes a shard over
// budget, the least-recently-used instances' caches are dropped
// (Compiled.DropCaches) until the shard fits: the compiled arena always
// survives, so an evicted instance recomputes its caches lazily on its
// next request instead of failing.
func WithCacheBudget(bytes int64) Option {
	return func(c *config) { c.budget = bytes }
}

// WithSnapshotDir warm-starts the server from a snapshot directory: every
// "*.ukc" file in dir is opened zero-copy at New and registered under its
// base name, so previously frozen instances serve their first request
// without recompiling anything (the restart path behind cmd/ukserver's
// -snapshot-dir). Snapshots of the other instance kind are skipped — a
// gateway runs one typed server per kind over a shared directory. A corrupt
// snapshot (bad checksum, truncation, torn layout) is quarantined — renamed
// to "*.quarantine", logged, counted — and the healthy remainder still
// serves; version/endianness mismatches and I/O errors abort New, since
// those are deployment errors, not bit-rot. Stale "*.ukc.tmp" write
// temporaries are swept before the scan. Empty (the default) disables the
// scan.
func WithSnapshotDir(dir string) Option {
	return func(c *config) { c.snapshotDir = dir }
}

// WithDrainTimeout bounds how long Close waits for in-flight work during
// shutdown (0, the default, waits indefinitely — the historical Close
// contract). When the timeout expires the remaining in-flight requests are
// canceled and Close returns once the workers observe it. Shutdown(ctx)
// callers control the bound through their context instead and ignore this
// setting.
func WithDrainTimeout(d time.Duration) Option {
	return func(c *config) { c.drainTimeout = d }
}

// WithFreezeOnShutdown makes a clean drain (Shutdown/Close that was not
// aborted by its deadline) freeze every registered instance to the snapshot
// directory before the server reports closed, so the next process warm-starts
// exactly the serving set this one held. Requires WithSnapshotDir; without
// one the flag is a no-op. Freezing an instance that already has an
// up-to-date snapshot rewrites it (atomically, via tmp+rename).
func WithFreezeOnShutdown(on bool) Option {
	return func(c *config) { c.freezeOnShutdown = on }
}

// WithLogger sets the structured logger for the server's operational events:
// snapshot quarantines, stale-temporary sweeps, drain aborts. The default is
// slog.Default(). A nil logger restores the default rather than disabling
// logging — these events indicate data loss or corruption and are never
// silent.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) {
		if l != nil {
			c.logger = l
		}
	}
}

// WithFlightRecorder installs a flight recorder: every request becomes a
// trace participant whose queue-wait and execution are spans, the incoming
// trace context (threaded by obs.ContextWithTrace — cmd/ukserver parses the
// caller's traceparent into it) joins server spans to the caller's trace,
// and the solver's own spans assemble under the execution span via the
// request context's tracer. Retention is the recorder's tail-sampling
// policy. Nil (the default) disables recording; the disabled path adds zero
// allocations to the request path — the same contract as the nil tracer.
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(c *config) { c.recorder = f }
}

// WithDefaultDeadline sets the per-request deadline applied when a request
// carries none of its own (0, the default, applies none). The deadline
// layers onto the caller's context — it covers queue wait plus execution,
// and a request that expires while still queued is failed with
// context.DeadlineExceeded without ever occupying a worker.
func WithDefaultDeadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}
