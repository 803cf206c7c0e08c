package obs

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestSpanNilTracerAllocs pins the package's core contract: with no tracer
// installed, a fully-exercised span — start, attributes, end — performs
// zero allocations. Every instrumented hot path in internal/core relies on
// this.
func TestSpanNilTracerAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(nil, "x")
		sp.Int("a", 1)
		sp.Int64("b", 2)
		sp.Micros("c", 3.5)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer span allocates %v allocs/op, want 0", allocs)
	}
}

// TestSpanNilTracerSkipsClock asserts the inert span never reads the clock:
// its start time stays zero.
func TestSpanNilTracerSkipsClock(t *testing.T) {
	sp := StartSpan(nil, "x")
	if !sp.start.IsZero() {
		t.Fatal("inert span read the clock")
	}
}

func TestSpanReportsToTracer(t *testing.T) {
	var rec Recorder
	sp := StartSpan(&rec, "region")
	sp.Int("count", 7)
	sp.Micros("ecost", 1.25)
	sp.End()

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "region" {
		t.Fatalf("span = %+v", s)
	}
	if v, ok := s.Attr("count"); !ok || v != 7 {
		t.Fatalf("count attr = %v, %v", v, ok)
	}
	if v, ok := s.Attr("ecost"); !ok || v != 1250000 {
		t.Fatalf("ecost attr = %v, %v (want micro-units)", v, ok)
	}
	if s.Dur < 0 {
		t.Fatalf("negative duration %v", s.Dur)
	}
}

// TestSpanAttrOverflow: attributes beyond the inline capacity are dropped,
// never reallocated.
func TestSpanAttrOverflow(t *testing.T) {
	var rec Recorder
	sp := StartSpan(&rec, "region")
	for i := 0; i < maxSpanAttrs+3; i++ {
		sp.Int("k", i)
	}
	sp.End()
	if got := len(rec.Spans()[0].Attrs); got != maxSpanAttrs {
		t.Fatalf("retained %d attrs, want %d", got, maxSpanAttrs)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi with no live tracers must be nil")
	}
	var a, b Recorder
	if got := Multi(nil, &a); got != Tracer(&a) {
		t.Fatal("Multi with one live tracer must unwrap it")
	}
	tr := Multi(&a, &b)
	sp := StartSpan(tr, "x")
	sp.End()
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("fan-out reached %d/%d tracers", len(a.Spans()), len(b.Spans()))
	}
}

func TestContextThreading(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("background context must carry no tracer")
	}
	if FromContext(nil) != nil {
		t.Fatal("nil context must carry no tracer")
	}
	var rec Recorder
	ctx := NewContext(context.Background(), &rec)
	if FromContext(ctx) != Tracer(&rec) {
		t.Fatal("tracer did not round-trip through the context")
	}
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("NewContext(nil tracer) must return ctx unchanged")
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Load())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// ≤1: {0.5, 1}; ≤10: {5, 10}; ≤100: {50, 100}; +Inf: {1000}.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-1166.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1166.5", s.Sum)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram(DurationBuckets()...)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.003) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v allocs/op, want 0", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1)
	done := make(chan struct{})
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.Observe(0.5)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	s := h.Snapshot()
	if s.Count != workers*per || s.Counts[0] != workers*per {
		t.Fatalf("count = %d bucket0 = %d, want %d", s.Count, s.Counts[0], workers*per)
	}
	if math.Abs(s.Sum-0.5*workers*per) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, 0.5*workers*per)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

// TestRetainedAttrsKeepValues pins the Tracer ownership rule: End hands
// each span a fresh attrs slice, which the Recorder and the flight
// recorder's trace assembly both keep without copying, so a retained slice
// keeps its values across later spans from the same site.
func TestRetainedAttrsKeepValues(t *testing.T) {
	var rec Recorder
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Nanosecond})
	at := f.Start(TraceContext{}, "req", "")
	tr := Multi(&rec, at.Tracer(at.RootID()))
	for i := 1; i <= 3; i++ {
		sp := StartSpan(tr, "x")
		sp.Int("a", i)
		sp.End()
	}
	at.Finish(nil)

	for i, s := range rec.Spans() {
		if v, _ := s.Attr("a"); v != int64(i+1) {
			t.Fatalf("recorder span %d reads a=%d, want %d", i, v, i+1)
		}
	}
	var got []int64
	for _, s := range f.Traces()[0].Spans {
		if s.Name == "x" {
			got = append(got, s.Attrs[0].Val)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("trace spans read a=%v, want [1 2 3]", got)
	}
}

// logUniform draws n values spread log-uniformly over [1e-5, 100) seconds:
// every DurationBuckets bucket, the +Inf overflow included, sees samples.
func logUniform(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Pow(10, -5+7*rng.Float64())
	}
	return out
}

// TestHistogramMerge: merging per-shard snapshots gives exactly the
// snapshot of one histogram fed every sample — bucket counts and Count
// bit for bit, Sum up to float reassociation — and the zero snapshot is
// the identity that Totals-style folds start from.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := NewHistogram(DurationBuckets()...)
	var merged HistogramSnapshot
	for shard := 0; shard < 4; shard++ {
		h := NewHistogram(DurationBuckets()...)
		for _, v := range logUniform(rng, 200+50*shard) {
			h.Observe(v)
			all.Observe(v)
		}
		merged = merged.Merge(h.Snapshot())
	}
	want := all.Snapshot()
	if !slices.Equal(merged.Bounds, want.Bounds) || !slices.Equal(merged.Counts, want.Counts) || merged.Count != want.Count {
		t.Fatalf("merged %v (count %d), want %v (count %d)", merged.Counts, merged.Count, want.Counts, want.Count)
	}
	if math.Abs(merged.Sum-want.Sum) > 1e-12*want.Sum {
		t.Fatalf("merged sum %v, want %v", merged.Sum, want.Sum)
	}

	// The result owns its counts: merging again leaves the inputs intact.
	before := slices.Clone(want.Counts)
	_ = want.Merge(want)
	if !slices.Equal(want.Counts, before) {
		t.Fatal("Merge wrote into its receiver's counts")
	}
}

// TestHistogramMergePanics: counts over different bucket layouts do not
// add, so Merge refuses them the way NewHistogram refuses bad bounds.
func TestHistogramMergePanics(t *testing.T) {
	base := NewHistogram(1, 10).Snapshot()
	for _, other := range [][]float64{{1, 100}, {1}, {1, 10, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("merging bounds [1 10] with %v did not panic", other)
				}
			}()
			base.Merge(NewHistogram(other...).Snapshot())
		}()
	}
}

// TestHistogramQuantile pins histogram_quantile semantics: 0 on an empty
// snapshot, linear interpolation inside the bucket that holds rank
// q·Count (the bucket of the nearest-rank sample), and the largest finite
// bound when that bucket is +Inf.
func TestHistogramQuantile(t *testing.T) {
	qs := []float64{0, 0.5, 0.99, 1}
	empty := NewHistogram(DurationBuckets()...).Snapshot()
	for _, q := range qs {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{2, 4, 6, 8} {
		h.Observe(v)
	}
	if got := h.Snapshot().Quantile(0.5); got != 5.5 {
		t.Fatalf("Quantile(0.5) of 2,4,6,8 over (1,10] = %v, want 1 + 9·2/4 = 5.5", got)
	}

	rng := rand.New(rand.NewSource(11))
	bounds := DurationBuckets()
	for trial := 0; trial < 50; trial++ {
		samples := logUniform(rng, 1+rng.Intn(300))
		h := NewHistogram(bounds...)
		for _, v := range samples {
			h.Observe(v)
		}
		s := h.Snapshot()
		slices.Sort(samples)
		for _, q := range qs {
			// The nearest-rank sample, ⌈q·n⌉-th smallest (the smallest for
			// q = 0), lies in the bucket that holds rank q·n.
			r := int(math.Ceil(q * float64(len(samples))))
			x := samples[max(r, 1)-1]
			b, _ := slices.BinarySearch(bounds, x)
			got := s.Quantile(q)
			if b == len(bounds) {
				if got != bounds[len(bounds)-1] {
					t.Fatalf("trial %d q=%v: rank in +Inf, got %v, want the largest finite bound %v", trial, q, got, bounds[len(bounds)-1])
				}
				continue
			}
			lo := 0.0
			if b > 0 {
				lo = bounds[b-1]
			}
			if !(got >= lo && got <= bounds[b]) { // NaN fails too
				t.Fatalf("trial %d q=%v: estimate %v outside the bucket [%v, %v] of the nearest-rank sample %v", trial, q, got, lo, bounds[b], x)
			}
		}
	}
}
