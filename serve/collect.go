package serve

import (
	"strconv"
)

// Collect walks the server's metrics in exporter-neutral form, invoking fn
// once per sample with a metric name, its label set, and the value.
// Exporters (cmd/ukserver's Prometheus endpoint is the in-tree one) render
// the walk into their wire format without serve knowing any of them.
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
//   - latency_seconds{shard,stage,quantile} — stage ∈ queue, exec, total;
//     quantile ∈ 0.5, 0.99; over the shard's last latWindow requests;
//   - instance_cache_bytes{shard,instance} — per-instance cache gauge;
//   - instance_cache_build_seconds_bucket{shard,instance,le} with _sum and
//     _count — the per-instance cache-build duration histogram
//     (cumulative buckets; le="+Inf" equals _count).
//
// The walk is a point-in-time snapshot (one Metrics() call); label maps are
// freshly allocated per sample and safe to retain. Ordering is
// deterministic: shards ascending, instances sorted by name.
func (s *Server[P]) Collect(fn func(name string, labels map[string]string, value float64)) {
	m := s.Metrics()
	fn("ukc_serve_snapshots_quarantined_total", map[string]string{}, float64(m.SnapshotsQuarantined))
	fn("ukc_serve_tmp_files_swept_total", map[string]string{}, float64(m.TempFilesSwept))
	for _, sh := range m.Shards {
		shard := strconv.Itoa(sh.Shard)
		req := func(outcome string, v uint64) {
			fn("ukc_serve_requests_total", map[string]string{"shard": shard, "outcome": outcome}, float64(v))
		}
		req("admitted", sh.Admitted)
		req("rejected", sh.Rejected)
		req("completed", sh.Completed)
		req("failed", sh.Failed)
		req("canceled", sh.Canceled)
		req("expired", sh.Expired)
		req("panicked", sh.Panicked)

		ev := func(event string, v uint64) {
			fn("ukc_serve_cache_events_total", map[string]string{"shard": shard, "event": event}, float64(v))
		}
		ev("hit", sh.CacheHits)
		ev("miss", sh.CacheMisses)
		ev("eviction", sh.Evictions)

		pr := func(event string, v uint64) {
			fn("ukc_serve_prune_total", map[string]string{"shard": shard, "event": event}, float64(v))
		}
		pr("scanned", sh.PruneScanned)
		pr("pruned", sh.PrunePruned)
		pr("excess", sh.PruneExcess)

		gauge := func(name string, v float64) {
			fn(name, map[string]string{"shard": shard}, v)
		}
		gauge("ukc_serve_instances", float64(sh.Instances))
		gauge("ukc_serve_queue_depth", float64(sh.QueueDepth))
		gauge("ukc_serve_queue_capacity", float64(sh.QueueCap))
		gauge("ukc_serve_cache_bytes", float64(sh.CacheBytes))
		gauge("ukc_serve_cache_budget_bytes", float64(sh.CacheBudget))

		lat := func(stage, quantile string, v float64) {
			fn("ukc_serve_latency_seconds", map[string]string{"shard": shard, "stage": stage, "quantile": quantile}, v)
		}
		lat("queue", "0.5", sh.QueueP50.Seconds())
		lat("queue", "0.99", sh.QueueP99.Seconds())
		lat("exec", "0.5", sh.ExecP50.Seconds())
		lat("exec", "0.99", sh.ExecP99.Seconds())
		lat("total", "0.5", sh.LatencyP50.Seconds())
		lat("total", "0.99", sh.LatencyP99.Seconds())

		for _, inst := range sh.PerInstance {
			fn("ukc_serve_instance_cache_bytes",
				map[string]string{"shard": shard, "instance": inst.Name}, float64(inst.CacheBytes))
			h := inst.CacheBuilds
			cum := uint64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				fn("ukc_serve_instance_cache_build_seconds_bucket",
					map[string]string{"shard": shard, "instance": inst.Name, "le": strconv.FormatFloat(bound, 'g', -1, 64)},
					float64(cum))
			}
			fn("ukc_serve_instance_cache_build_seconds_bucket",
				map[string]string{"shard": shard, "instance": inst.Name, "le": "+Inf"}, float64(h.Count))
			fn("ukc_serve_instance_cache_build_seconds_sum",
				map[string]string{"shard": shard, "instance": inst.Name}, h.Sum)
			fn("ukc_serve_instance_cache_build_seconds_count",
				map[string]string{"shard": shard, "instance": inst.Name}, float64(h.Count))
		}
	}
}
