// Package obs is the repository's dependency-free observability layer: a
// lightweight tracing contract (Tracer, Span) the core pipelines report
// phase timings through, and the atomic metric primitives (Counter, Gauge,
// Histogram) the serving layer aggregates request telemetry with.
//
// The design constraint is that instrumentation must cost nothing when
// nobody is listening: every hot path in internal/core carries span calls,
// and those calls must be branch-cheap and strictly allocation-free when no
// tracer is installed (pinned by TestSpanNilTracerAllocs and
// BenchmarkSpanNilTracer). StartSpan therefore returns an inert value span
// for a nil tracer — no time.Now call, no attribute storage, every method a
// nil-check and return — and attributes live in a fixed inline array so a
// live span allocates only at End, where the one slice handed to the tracer
// is built.
//
// Tracers are threaded two ways, which compose:
//
//   - explicitly: ukc.WithTracer installs one on a Solver, which stamps it
//     into the context of every solve it runs;
//   - ambiently: NewContext/FromContext carry a tracer through call chains
//     whose signatures predate tracing (core.Compile, the memoized cache
//     builds inside core.Compiled). The serving layer uses this to observe
//     cache rebuilds triggered by requests it executes.
//
// When both are present the solver merges them with Multi, so a
// server-installed tracer and a caller-installed one each see every span.
package obs

import (
	"context"
	"time"
)

// Attr is one integer span attribute. Spans carry only integers by design —
// counts, byte sizes, iteration numbers — so recording one never formats or
// allocates; real-valued quantities are scaled (see Micros).
type Attr struct {
	Key string
	Val int64
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Val: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// Micros encodes a real-valued quantity as an integer attribute in
// micro-units (v·10⁶, truncated): the convention the core pipelines use to
// report E-cost trajectories through the integer-only attribute contract.
func Micros(key string, v float64) Attr { return Attr{Key: key, Val: int64(v * 1e6)} }

// Tracer receives completed spans from instrumented code. Implementations
// must be goroutine-safe: the solver's worker pools report concurrently.
//
// name identifies the instrumented region (e.g. "compile.validate",
// "surrogate.build.ep", "ls.iter" — DESIGN.md §8 lists the vocabulary).
// attrs is handed over: the caller never touches the slice again, so a
// tracer may retain it without copying, and must not modify it (a Multi
// fan-out hands every tracer the same slice).
type Tracer interface {
	Span(name string, start time.Time, dur time.Duration, attrs []Attr)
}

// maxSpanAttrs is the inline attribute capacity of a Span; attributes set
// beyond it are dropped (no instrumented site sets more than six).
const maxSpanAttrs = 8

// Span is one in-flight instrumented region, created by StartSpan and
// reported to the tracer by End. It is a value type with inline attribute
// storage: a span local to a function frame never heap-allocates, and a
// span started against a nil tracer is inert — every method returns
// immediately, without even reading the clock.
//
// A Span must not be shared between goroutines; instrumented code creates
// one per region per goroutine.
type Span struct {
	tr    Tracer
	name  string
	start time.Time
	n     int
	attrs [maxSpanAttrs]Attr
}

// StartSpan begins a named region against tr. A nil tr yields an inert span
// at no cost — the instrumented hot paths call this unconditionally.
func StartSpan(tr Tracer, name string) Span {
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, name: name, start: time.Now()}
}

// Int records an integer attribute on the span.
func (s *Span) Int(key string, v int) {
	s.Int64(key, int64(v))
}

// Int64 records an integer attribute on the span.
func (s *Span) Int64(key string, v int64) {
	if s.tr == nil || s.n >= maxSpanAttrs {
		return
	}
	s.attrs[s.n] = Attr{Key: key, Val: v}
	s.n++
}

// Micros records a real-valued attribute in micro-units (see Micros).
func (s *Span) Micros(key string, v float64) {
	if s.tr == nil {
		return
	}
	s.Int64(key, int64(v*1e6))
}

// End completes the span and reports it to the tracer, handing over a
// freshly allocated attribute slice (the only allocation a live span
// performs; see Tracer).
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	attrs := make([]Attr, s.n)
	copy(attrs, s.attrs[:s.n])
	s.tr.Span(s.name, s.start, time.Since(s.start), attrs)
}

// multiTracer fans every span out to several tracers; see Multi.
type multiTracer []Tracer

func (m multiTracer) Span(name string, start time.Time, dur time.Duration, attrs []Attr) {
	for _, tr := range m {
		tr.Span(name, start, dur, attrs)
	}
}

// Multi combines tracers: every span is delivered to each, in order. Nil
// entries are dropped; zero live tracers yield nil (instrumentation stays
// free), one yields it unwrapped.
func Multi(trs ...Tracer) Tracer {
	live := make(multiTracer, 0, len(trs))
	for _, tr := range trs {
		if tr != nil {
			live = append(live, tr)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// ctxKey is the context key tracers travel under; zero-sized, so storing
// and looking it up never allocates.
type ctxKey struct{}

// NewContext returns ctx carrying tr, the ambient channel through which
// tracers reach call chains whose signatures predate tracing (core.Compile,
// the memoized cache builds). A nil tr returns ctx unchanged.
func NewContext(ctx context.Context, tr Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the tracer carried by ctx, or nil. The nil result is
// directly usable with StartSpan — untraced contexts keep instrumentation
// free.
func FromContext(ctx context.Context) Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(Tracer)
	return tr
}
