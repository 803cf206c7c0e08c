package serve

import (
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
	// pruning-enabled scans, the subset the t*·G∞ bound skipped, and the
	// subset the expected-excess certificate skipped.
	pruneScanned atomic.Uint64
	prunePruned  atomic.Uint64
	pruneExcess  atomic.Uint64
}

// shardLatency is one shard's request latency since server start, in
// seconds: queue wait, execution, and their sum per request, each in a
// lock-free obs.DurationBuckets histogram. The sum is observed on its own
// because the component histograms cannot give it: the end-to-end
// distribution depends on how each request's two parts pair up.
type shardLatency struct {
	queue, exec, total *obs.Histogram
}

func newShardLatency() shardLatency {
	return shardLatency{
		queue: obs.NewHistogram(obs.DurationBuckets()...),
		exec:  obs.NewHistogram(obs.DurationBuckets()...),
		total: obs.NewHistogram(obs.DurationBuckets()...),
	}
}

// observe records one executed request's queue wait and execution.
func (l shardLatency) observe(queue, exec time.Duration) {
	l.queue.Observe(queue.Seconds())
	l.exec.Observe(exec.Seconds())
	l.total.Observe((queue + exec).Seconds())
}

// observeQueued records a request that expired or was canceled in the
// queue: its wait is its whole latency, and exec never sees it.
func (l shardLatency) observeQueued(queue time.Duration) {
	l.queue.Observe(queue.Seconds())
	l.total.Observe(queue.Seconds())
}

// InstanceMetrics is one registered instance's cache view: the shard's last
// byte accounting of its memoized caches and the distribution of its
// cache-build durations (surrogate builds — each fires once
// per instance lifetime, or again after a byte-budget eviction forces a
// lazy rebuild, so a populated histogram on a long-lived instance is a
// direct read on eviction churn).
type InstanceMetrics struct {
	Name        string
	CacheBytes  int64
	CacheBuilds obs.HistogramSnapshot
}

// ShardMetrics is one shard's snapshot: registry and queue occupancy, cache
// accounting, request counters and latency histograms. Counters and
// histograms are cumulative since server start; gauges (QueueDepth,
// CacheBytes, Instances) are instantaneous. TotalLatency is end-to-end
// (queue + execution, per request); QueueLatency and ExecLatency split the
// same requests into their components; QueueLatency and TotalLatency also
// count the requests that expired or were canceled in the queue, with
// their wait until a worker dequeued them. All three are in seconds; read
// a quantile with HistogramSnapshot.Quantile.
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

	// PruneScanned / PrunePruned / PruneExcess are the shard's swap-scan
	// counters across SolveUnassigned requests: candidates considered, the
	// subset the t*·G∞ lower bound skipped without an exact evaluation, and
	// the subset the expected-excess certificate skipped before its sweep;
	// every other scanned candidate was evaluated. PrunePruned/PruneScanned
	// (PruneRate) is the live measure of how much of the O(n·m) swap-scan
	// wall the first bound is absorbing.
	PruneScanned uint64
	PrunePruned  uint64
	PruneExcess  uint64

	QueueLatency obs.HistogramSnapshot
	ExecLatency  obs.HistogramSnapshot
	TotalLatency obs.HistogramSnapshot

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

// Totals sums the per-shard snapshots (Shard = -1). Its latency histograms
// are the bucket-wise sums of the shards' (HistogramSnapshot.Merge), so
// their quantiles are those of every shard's requests taken together, up
// to the histogram's bucket error. PerInstance stays nil: instance rows
// belong to their shard.
func (m Metrics) Totals() ShardMetrics {
	t := ShardMetrics{Shard: -1}
	for _, s := range m.Shards {
		t.QueueLatency = t.QueueLatency.Merge(s.QueueLatency)
		t.ExecLatency = t.ExecLatency.Merge(s.ExecLatency)
		t.TotalLatency = t.TotalLatency.Merge(s.TotalLatency)
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
		t.PruneExcess += s.PruneExcess
	}
	return t
}
