package serve

import (
	"strconv"

	"repro/obs"
)

// Collect walks the server's metrics in exporter-neutral form, invoking
// scalar once per counter or gauge sample with a metric name, its label
// set and the value, and hist once per histogram with its family name,
// label set and snapshot. Exporters (cmd/ukserver's Prometheus endpoint is
// the in-tree one) render the walk into their wire format — a histogram's
// bucket, sum and count series included — without serve knowing any of
// them.
//
// The vocabulary, all prefixed ukc_serve_:
//
//   - requests_total{shard,outcome} — outcome ∈ admitted, rejected,
//     completed, failed, canceled, expired, panicked (counters);
//   - snapshots_quarantined_total, tmp_files_swept_total — server-level
//     (no labels) snapshot-hygiene counters: corrupt snapshots renamed to
//     *.quarantine, and stale *.ukc.tmp write temporaries removed at
//     startup;
//   - cache_events_total{shard,event} — event ∈ hit, miss, eviction;
//   - prune_total{shard,event} — event ∈ scanned, pruned, excess:
//     swap-scan accounting across pruning-enabled SolveUnassigned
//     requests; every scanned candidate is pruned by the t*·G∞ bound
//     (pruned), skipped by the expected-excess certificate before its
//     sweep (excess), or evaluated (pruned/scanned is the live prune
//     rate);
//   - instances, queue_depth, queue_capacity, cache_bytes,
//     cache_budget_bytes{shard} — gauges;
//   - latency_seconds{shard,stage} — histogram, stage ∈ queue, exec,
//     total: every executed request's queue wait, execution and their sum
//     since server start, in obs.DurationBuckets; the buckets add across
//     shards (and across an exporter's servers);
//   - instance_cache_bytes{shard,instance} — per-instance cache gauge;
//   - instance_cache_build_seconds{shard,instance} — histogram: the
//     per-instance cache-build durations.
//
// The walk is a point-in-time snapshot (one Metrics() call); label maps are
// freshly allocated per call and safe to retain. Ordering is
// deterministic: shards ascending, instances sorted by name.
func (s *Server[P]) Collect(scalar func(name string, labels map[string]string, value float64), hist func(name string, labels map[string]string, h obs.HistogramSnapshot)) {
	m := s.Metrics()
	scalar("ukc_serve_snapshots_quarantined_total", map[string]string{}, float64(m.SnapshotsQuarantined))
	scalar("ukc_serve_tmp_files_swept_total", map[string]string{}, float64(m.TempFilesSwept))
	for _, sh := range m.Shards {
		shard := strconv.Itoa(sh.Shard)
		req := func(outcome string, v uint64) {
			scalar("ukc_serve_requests_total", map[string]string{"shard": shard, "outcome": outcome}, float64(v))
		}
		req("admitted", sh.Admitted)
		req("rejected", sh.Rejected)
		req("completed", sh.Completed)
		req("failed", sh.Failed)
		req("canceled", sh.Canceled)
		req("expired", sh.Expired)
		req("panicked", sh.Panicked)

		ev := func(event string, v uint64) {
			scalar("ukc_serve_cache_events_total", map[string]string{"shard": shard, "event": event}, float64(v))
		}
		ev("hit", sh.CacheHits)
		ev("miss", sh.CacheMisses)
		ev("eviction", sh.Evictions)

		pr := func(event string, v uint64) {
			scalar("ukc_serve_prune_total", map[string]string{"shard": shard, "event": event}, float64(v))
		}
		pr("scanned", sh.PruneScanned)
		pr("pruned", sh.PrunePruned)
		pr("excess", sh.PruneExcess)

		gauge := func(name string, v float64) {
			scalar(name, map[string]string{"shard": shard}, v)
		}
		gauge("ukc_serve_instances", float64(sh.Instances))
		gauge("ukc_serve_queue_depth", float64(sh.QueueDepth))
		gauge("ukc_serve_queue_capacity", float64(sh.QueueCap))
		gauge("ukc_serve_cache_bytes", float64(sh.CacheBytes))
		gauge("ukc_serve_cache_budget_bytes", float64(sh.CacheBudget))

		lat := func(stage string, h obs.HistogramSnapshot) {
			hist("ukc_serve_latency_seconds", map[string]string{"shard": shard, "stage": stage}, h)
		}
		lat("queue", sh.QueueLatency)
		lat("exec", sh.ExecLatency)
		lat("total", sh.TotalLatency)

		for _, inst := range sh.PerInstance {
			scalar("ukc_serve_instance_cache_bytes",
				map[string]string{"shard": shard, "instance": inst.Name}, float64(inst.CacheBytes))
			hist("ukc_serve_instance_cache_build_seconds",
				map[string]string{"shard": shard, "instance": inst.Name}, inst.CacheBuilds)
		}
	}
}
