package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/obs"
)

// shardCounters are one shard's monotonic request counters; every field is
// updated atomically on the request path and read by Metrics snapshots.
type shardCounters struct {
	admitted  atomic.Uint64 // requests accepted into the queue
	rejected  atomic.Uint64 // requests bounced with ErrOverloaded
	completed atomic.Uint64 // executed requests that returned no error
	failed    atomic.Uint64 // executed requests that returned a genuine error (not a context verdict or panic)
	canceled  atomic.Uint64 // requests whose caller canceled, queued or mid-execution
	expired   atomic.Uint64 // requests whose deadline passed, queued or mid-execution
	panicked  atomic.Uint64 // executed requests whose workload panicked (recovered to ErrPanicked)
	hits      atomic.Uint64 // executed requests with no cache build in their window
	misses    atomic.Uint64 // executed requests whose window saw a cache build
	evictions atomic.Uint64 // DropCaches calls issued by the byte-budget LRU

	// Swap-scan prune accounting, fed by the ls.prune spans the entry
	// tracer observes on SolveUnassigned requests: candidates considered by
	// pruning-enabled scans, and the subset the t*·G∞ bound skipped.
	pruneScanned atomic.Uint64
	prunePruned  atomic.Uint64
}

// latWindow is the per-shard latency sample size: large enough for stable
// p99 estimates under load, small enough that a snapshot copy+sort stays
// trivial.
const latWindow = 1024

// latencyRing keeps the last latWindow requests' (queue wait, execution)
// duration pairs of one shard, snapshot-readable. Storing the pair rather
// than the sum lets quantiles split queue wait from execution — the two
// tuning signals (admission pressure vs solve cost) — while the end-to-end
// view stays exactly the pairwise sum.
type latencyRing struct {
	mu  sync.Mutex
	buf [latWindow][2]int64 // [0] queue wait, [1] execution, nanoseconds
	n   uint64              // total recorded; buf index wraps at latWindow
}

func (r *latencyRing) record(queue, exec time.Duration) {
	r.mu.Lock()
	r.buf[r.n%latWindow] = [2]int64{int64(queue), int64(exec)}
	r.n++
	r.mu.Unlock()
}

// latencyQuantiles is one shard's p50/p99 split three ways: queue wait,
// execution, and end-to-end (their pairwise sum).
type latencyQuantiles struct {
	QueueP50, QueueP99 time.Duration
	ExecP50, ExecP99   time.Duration
	TotalP50, TotalP99 time.Duration
}

// quantiles returns the p50/p99 over the recorded window (all zero when no
// request has completed yet).
func (r *latencyRing) quantiles() (q latencyQuantiles) {
	r.mu.Lock()
	n := r.n
	if n > latWindow {
		n = latWindow
	}
	queue := make([]int64, n)
	exec := make([]int64, n)
	total := make([]int64, n)
	for i := uint64(0); i < n; i++ {
		queue[i] = r.buf[i][0]
		exec[i] = r.buf[i][1]
		total[i] = r.buf[i][0] + r.buf[i][1]
	}
	r.mu.Unlock()
	if n == 0 {
		return q
	}
	rank := func(s []int64) (p50, p99 time.Duration) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return time.Duration(s[(n-1)*50/100]), time.Duration(s[(n-1)*99/100])
	}
	q.QueueP50, q.QueueP99 = rank(queue)
	q.ExecP50, q.ExecP99 = rank(exec)
	q.TotalP50, q.TotalP99 = rank(total)
	return q
}

// InstanceMetrics is one registered instance's cache view: the shard's last
// byte accounting of its memoized caches and the distribution of its
// cache-build durations (surrogate and evaluator builds — each fires once
// per instance lifetime, or again after a byte-budget eviction forces a
// lazy rebuild, so a populated histogram on a long-lived instance is a
// direct read on eviction churn).
type InstanceMetrics struct {
	Name        string
	CacheBytes  int64
	CacheBuilds obs.HistogramSnapshot
}

// ShardMetrics is one shard's snapshot: registry and queue occupancy, cache
// accounting, request counters and latency quantiles. Counters are
// monotonic since server start; gauges (QueueDepth, CacheBytes, Instances)
// are instantaneous. LatencyP50/P99 are end-to-end (queue + execution);
// QueueP50/P99 and ExecP50/P99 split the same window into its components.
type ShardMetrics struct {
	Shard      int
	Instances  int
	QueueDepth int
	QueueCap   int

	CacheBytes  int64
	CacheBudget int64

	Admitted  uint64
	Rejected  uint64
	Completed uint64
	Failed    uint64
	Canceled  uint64
	Expired   uint64
	Panicked  uint64

	CacheHits   uint64
	CacheMisses uint64
	Evictions   uint64

	// PruneScanned / PrunePruned are the shard's swap-scan counters across
	// SolveUnassigned requests with pruning enabled (the default):
	// candidates considered, and the subset the t*·G∞ lower bound skipped
	// without an exact evaluation; every other scanned candidate was
	// evaluated. Their ratio (PruneRate) is the live measure of how much of
	// the O(n·m) swap-scan wall the bound is absorbing.
	PruneScanned uint64
	PrunePruned  uint64

	LatencyP50 time.Duration
	LatencyP99 time.Duration
	QueueP50   time.Duration
	QueueP99   time.Duration
	ExecP50    time.Duration
	ExecP99    time.Duration

	PerInstance []InstanceMetrics
}

// HitRate returns the warm-cache hit fraction of executed requests (0 when
// none have executed).
func (m ShardMetrics) HitRate() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// PruneRate returns the fraction of scanned candidates the t*·G∞ bound
// pruned without an exact evaluation (0 when no pruning-enabled scan has
// run).
func (m ShardMetrics) PruneRate() float64 {
	if m.PruneScanned == 0 {
		return 0
	}
	return float64(m.PrunePruned) / float64(m.PruneScanned)
}

// Metrics is a full server snapshot: one entry per shard plus the
// cross-shard totals and the server-level snapshot-hygiene counters.
type Metrics struct {
	Shards []ShardMetrics

	// SnapshotsQuarantined counts corrupt `.ukc` files renamed to
	// `*.quarantine` (warm start or RegisterSnapshot) since server start;
	// TempFilesSwept counts stale `*.ukc.tmp` write temporaries removed by
	// the WithSnapshotDir startup sweep. Both are server-level — snapshot
	// hygiene happens before a file is attributed to any shard.
	SnapshotsQuarantined uint64
	TempFilesSwept       uint64
}

// Totals sums the per-shard snapshots (Shard = -1; latency quantiles are
// the max across shards — a conservative "worst shard" view, since exact
// cross-shard quantiles would need the raw samples). PerInstance stays nil:
// instance rows belong to their shard.
func (m Metrics) Totals() ShardMetrics {
	t := ShardMetrics{Shard: -1}
	maxDur := func(dst *time.Duration, v time.Duration) {
		if v > *dst {
			*dst = v
		}
	}
	for _, s := range m.Shards {
		t.Instances += s.Instances
		t.QueueDepth += s.QueueDepth
		t.QueueCap += s.QueueCap
		t.CacheBytes += s.CacheBytes
		t.CacheBudget += s.CacheBudget
		t.Admitted += s.Admitted
		t.Rejected += s.Rejected
		t.Completed += s.Completed
		t.Failed += s.Failed
		t.Canceled += s.Canceled
		t.Expired += s.Expired
		t.Panicked += s.Panicked
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.Evictions += s.Evictions
		t.PruneScanned += s.PruneScanned
		t.PrunePruned += s.PrunePruned
		maxDur(&t.LatencyP50, s.LatencyP50)
		maxDur(&t.LatencyP99, s.LatencyP99)
		maxDur(&t.QueueP50, s.QueueP50)
		maxDur(&t.QueueP99, s.QueueP99)
		maxDur(&t.ExecP50, s.ExecP50)
		maxDur(&t.ExecP99, s.ExecP99)
	}
	return t
}
