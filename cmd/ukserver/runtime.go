package main

// runtime.go exports the process-health gauges the serving-layer Collect
// walk cannot see: goroutine count, heap occupancy, and a GC pause-time
// histogram, all read from the Go runtime at scrape time. These carry no
// kind label — they describe the process, not an instance-kind server.

import (
	"math"
	"runtime"
	"runtime/metrics"

	"repro/obs"
)

// gcPauseBounds is the fixed bucket layout (seconds) the runtime's GC pause
// histogram is re-bucketed into: sub-microsecond noise through a 100ms
// stall, geometrically spaced.
var gcPauseBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}

// collectRuntime appends the Go runtime series to the scrape.
func collectRuntime(pc *promCollector) {
	pc.sample("go_goroutines", nil, float64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pc.sample("go_heap_alloc_bytes", nil, float64(ms.HeapAlloc))
	pc.sample("go_heap_inuse_bytes", nil, float64(ms.HeapInuse))
	pc.sample("go_heap_objects", nil, float64(ms.HeapObjects))
	pc.sample("go_gc_cycles_total", nil, float64(ms.NumGC))

	samples := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(samples)
	if h := samples[0].Value.Float64Histogram(); h != nil {
		writeHistogram(pc, "go_gc_pause_seconds", nil, rebucket(h, gcPauseBounds))
	}
}

// rebucket folds a runtime Float64Histogram (fine-grained, possibly with
// infinite edge boundaries) into an obs-style snapshot over fixed bounds.
// Each runtime bucket lands in the first bound that covers its upper edge;
// the sum is approximated from bucket midpoints (the runtime histogram does
// not carry an exact sum).
func rebucket(h *metrics.Float64Histogram, bounds []float64) obs.HistogramSnapshot {
	snap := obs.HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		j := len(bounds) // +Inf overflow
		for b, bound := range bounds {
			if hi <= bound {
				j = b
				break
			}
		}
		snap.Counts[j] += c
		snap.Count += c
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		snap.Sum += float64(c) * (lo + hi) / 2
	}
	return snap
}
