package obs

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Counter is a monotonic atomic counter. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observation counts per bucket plus
// an exact sum and count, all updated atomically and lock-free. Buckets are
// fixed at construction — there is no dynamic resizing, which is what keeps
// Observe allocation-free — and the last bucket is an implicit +Inf
// overflow, so every observation lands somewhere.
//
// A Histogram is goroutine-safe. Snapshot is not atomic across fields: a
// snapshot taken during concurrent observation may see a sum slightly ahead
// of the bucket counts (or vice versa), which is the standard, harmless
// scrape race every lock-free histogram has.
type Histogram struct {
	bounds []float64       // ascending upper bounds; observations ≤ bounds[i] land in bucket i
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (e.g. seconds: 0.001, 0.01, 0.1, 1). Panics on zero or non-increasing
// bounds — bucket layouts are static configuration, not data.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DurationBuckets is the bucket layout (in seconds) the serving layer uses
// for cache-build and request durations: 100µs to 30s, each bound 2× or 5×
// the one before it up to 5s — wide enough for a cold surrogate build on a
// large instance, fine enough to separate a warm microsecond path from a
// rebuild.
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}
}

// Observe records one value: its bucket count, the total count and the
// exact sum. Lock-free and allocation-free.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: the bucket
// bounds, per-bucket (non-cumulative) counts with the +Inf overflow last,
// and the exact sum and count of all observations.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending; the final bucket's +Inf bound is implicit
	Counts []uint64  // len(Bounds)+1 per-bucket counts
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's current state; see the type comment for
// the (harmless) scrape race under concurrent observation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction; safe to share
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge returns the bucket-wise sum of s and o: the snapshot one histogram
// fed both streams of observations would hold (Sum up to float rounding).
// The zero snapshot is the identity. Panics when both carry buckets over
// different bounds, as NewHistogram does on bad bounds: a bucket layout is
// static configuration, and counts over different layouts do not add.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Counts) == 0 {
		s, o = o, s
	}
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: slices.Clone(s.Counts), Sum: s.Sum + o.Sum, Count: s.Count + o.Count}
	if len(o.Counts) == 0 {
		return out
	}
	if !slices.Equal(s.Bounds, o.Bounds) {
		panic("obs: merging histograms with different bounds")
	}
	for i, c := range o.Counts {
		out.Counts[i] += c
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations with
// Prometheus's histogram_quantile semantics: it finds the bucket holding
// rank q·n, n the bucket total, and interpolates linearly inside it, the
// first bucket starting at 0. The estimate therefore lies in the same
// bucket as the true quantile, and its error is at most that bucket's
// width. A rank in the +Inf bucket returns the largest finite bound; an
// empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var below uint64 // observations in the buckets before i
	for i, c := range s.Counts {
		// The first non-empty bucket whose cumulative count reaches the
		// rank holds it; skipping empty buckets gives q = 0 the bucket of
		// the smallest observation.
		if c == 0 || float64(below+c) < rank {
			below += c
			continue
		}
		if i == len(s.Bounds) {
			break
		}
		hi, lo := s.Bounds[i], 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		} else if hi <= 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(below))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}
