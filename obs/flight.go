package obs

// flight.go is the in-process flight recorder: a fixed-capacity,
// tail-sampled retention layer over the span stream. Where Recorder keeps
// every span forever (a test sink), FlightRecorder assembles completed
// spans into per-request trace trees and decides retention only once the
// outcome is known — Dapper-style tail sampling: traces that erred,
// panicked or ran slower than a threshold are always kept (up to a ring
// capacity), a small reservoir sample of the boring rest is kept for
// baseline comparison, and everything else is dropped with all of its
// spans.
//
// A trace is assembled by participants. Each Start call registers one
// participant — the serving layer's request handler, or a client call that
// shares the recorder in-process — under the trace named by the
// TraceContext: participants with the same TraceID join the same trace
// (the scatter-gather shape the distributed tier needs), and the trace
// completes when its last participant calls Finish. Spans recorded after
// completion (an abandoned request whose worker finishes late) are
// silently dropped.
//
// The disabled path is pinned like the nil tracer: every method on a nil
// *FlightRecorder or nil *ActiveTrace returns immediately — no clock read,
// no allocation (TestFlightRecorderDisabledAllocs, BenchmarkFlightRecorder).

import (
	"sync"
	"sync/atomic"
	"time"
)

// KeepReason says why a retained trace survived tail sampling.
type KeepReason string

const (
	// KeepError: a participant finished with a non-nil error (solver
	// failures and recovered panics both arrive this way).
	KeepError KeepReason = "error"
	// KeepSlow: the end-to-end duration met the latency threshold.
	KeepSlow KeepReason = "slow"
	// KeepSampled: a boring trace kept by the reservoir sample.
	KeepSampled KeepReason = "sampled"
)

// TraceSpan is one completed span inside an assembled trace. ParentID is
// zero for the trace root; Attrs follows the Tracer contract (integer-only,
// handed over by the recording call).
type TraceSpan struct {
	SpanID   SpanID
	ParentID SpanID
	Name     string
	Instance string
	Start    time.Time
	Dur      time.Duration
	Attrs    []Attr
}

// End returns the span's completion time.
func (s TraceSpan) End() time.Time { return s.Start.Add(s.Dur) }

// Trace is one fully-assembled, retained trace tree.
type Trace struct {
	TraceID TraceID
	Start   time.Time     // earliest span start
	Dur     time.Duration // latest span end − earliest span start
	Err     string        // first participant error ("" when clean)
	Reason  KeepReason
	Spans   []TraceSpan // record order; roots carry a zero ParentID
	Dropped int         // spans discarded by the per-trace cap
}

// Span returns the first span with the given name and whether one exists.
func (t Trace) Span(name string) (TraceSpan, bool) {
	for _, s := range t.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return TraceSpan{}, false
}

// HasInstance reports whether any span carries the instance label.
func (t Trace) HasInstance(instance string) bool {
	for _, s := range t.Spans {
		if s.Instance == instance {
			return true
		}
	}
	return false
}

// FlightConfig sizes a FlightRecorder. The zero value of any field selects
// its default; Reservoir and Threshold use -1 to mean "off" (0 keeps the
// default so an all-zero config is usable).
type FlightConfig struct {
	// Capacity bounds the ring of traces retained because they erred or ran
	// slow; the oldest is overwritten. Default 64.
	Capacity int
	// Reservoir is the number of boring (fast, clean) traces kept as a
	// uniform sample over everything seen since start. Default 8; -1 keeps
	// none.
	Reservoir int
	// Threshold is the end-to-end duration at or above which a trace is
	// always retained. Default 100ms; -1 disables latency-based retention.
	Threshold time.Duration
	// MaxSpans caps the spans assembled per trace; the excess is counted in
	// Trace.Dropped. Default 256.
	MaxSpans int
	// MaxActive caps concurrently-assembling traces; Start beyond it
	// returns an inert handle (counted in Stats.DroppedActive). Default 512.
	MaxActive int
	// Seed seeds the reservoir-sampling RNG (deterministic retention for
	// tests). Default 1.
	Seed int64
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Capacity == 0 {
		c.Capacity = 64
	}
	switch {
	case c.Reservoir == 0:
		c.Reservoir = 8
	case c.Reservoir < 0:
		c.Reservoir = 0
	}
	switch {
	case c.Threshold == 0:
		c.Threshold = 100 * time.Millisecond
	case c.Threshold < 0:
		c.Threshold = 1<<63 - 1
	}
	if c.MaxSpans == 0 {
		c.MaxSpans = 256
	}
	if c.MaxActive == 0 {
		c.MaxActive = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FlightStats is a point-in-time view of a recorder's accounting.
type FlightStats struct {
	Started       uint64 // participants registered
	Completed     uint64 // traces fully assembled (last participant finished)
	KeptError     uint64 // retained because a participant erred
	KeptSlow      uint64 // retained by the latency threshold
	Sampled       uint64 // boring traces offered to the reservoir
	DroppedActive uint64 // Start calls refused by the MaxActive cap
}

// FlightRecorder assembles spans into traces and tail-samples retention.
// Construct with NewFlightRecorder; a nil *FlightRecorder is the disabled
// recorder — every method is an allocation-free no-op.
type FlightRecorder struct {
	cfg FlightConfig

	mu     sync.Mutex
	active map[TraceID]*traceState
	kept   []*Trace // ring of error/slow traces; keptN counts insertions
	keptN  uint64
	res    []*Trace // reservoir of boring traces
	seen   uint64   // boring traces offered to the reservoir
	rng    uint64   // splitmix64 state for reservoir replacement

	started       atomic.Uint64
	completed     atomic.Uint64
	keptError     atomic.Uint64
	keptSlow      atomic.Uint64
	sampled       atomic.Uint64
	droppedActive atomic.Uint64
}

// NewFlightRecorder builds a recorder sized by cfg (zero fields select
// defaults; see FlightConfig).
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{
		cfg:    cfg,
		active: make(map[TraceID]*traceState),
		kept:   make([]*Trace, 0, cfg.Capacity),
		res:    make([]*Trace, 0, cfg.Reservoir),
		rng:    uint64(cfg.Seed),
	}
}

// traceState is one in-assembly trace, shared by its participants.
type traceState struct {
	rec *FlightRecorder
	id  TraceID

	mu      sync.Mutex
	refs    int
	done    bool
	spans   []TraceSpan
	dropped int
	err     string
}

// ActiveTrace is one participant's handle on an in-assembly trace: the
// serving layer holds one per admitted request, a recorder-sharing client
// one per call. The zero of usefulness — a nil handle, from a nil recorder
// or a full one — accepts every call as a no-op, so instrumentation points
// never branch on whether recording is on.
type ActiveTrace struct {
	st    *traceState
	root  SpanID
	start time.Time
}

// Start registers a participant for the trace named by tc (a fresh trace ID
// is generated when tc carries none) and opens its root span, parented on
// tc.SpanID — the remote caller's span when one propagated in. Participants
// starting with the same TraceID join the same trace; it is retained or
// dropped as one unit when the last participant finishes.
func (f *FlightRecorder) Start(tc TraceContext, name, instance string) *ActiveTrace {
	if f == nil {
		return nil
	}
	f.started.Add(1)
	id := tc.TraceID
	if id.IsZero() {
		id = NewTraceID()
	}
	f.mu.Lock()
	st := f.active[id]
	if st == nil {
		if len(f.active) >= f.cfg.MaxActive {
			f.mu.Unlock()
			f.droppedActive.Add(1)
			return nil
		}
		st = &traceState{rec: f, id: id}
		f.active[id] = st
	}
	st.mu.Lock()
	st.refs++
	st.mu.Unlock()
	f.mu.Unlock()

	at := &ActiveTrace{st: st, root: NewSpanID(), start: time.Now()}
	st.add(TraceSpan{SpanID: at.root, ParentID: tc.SpanID, Name: name, Instance: instance, Start: at.start})
	return at
}

// add appends a span under the per-trace cap (drops and counts beyond it,
// or after completion).
func (st *traceState) add(sp TraceSpan) {
	st.mu.Lock()
	if st.done || len(st.spans) >= st.rec.cfg.MaxSpans {
		st.dropped++
		st.mu.Unlock()
		return
	}
	st.spans = append(st.spans, sp)
	st.mu.Unlock()
}

// TraceID returns the trace's ID (zero on a nil handle).
func (a *ActiveTrace) TraceID() TraceID {
	if a == nil {
		return TraceID{}
	}
	return a.st.id
}

// RootID returns this participant's root span ID (zero on a nil handle).
func (a *ActiveTrace) RootID() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.root
}

// NewSpanID draws a span ID for a span whose children must know their
// parent before the span itself completes (the serving layer's exec span).
// Zero on a nil handle.
func (a *ActiveTrace) NewSpanID() SpanID {
	if a == nil {
		return SpanID{}
	}
	return NewSpanID()
}

// Record adds one completed span with an explicit ID and parent. attrs is
// retained as handed over, as the Tracer contract has it. No-op on a nil
// handle.
func (a *ActiveTrace) Record(id, parent SpanID, name, instance string, start time.Time, dur time.Duration, attrs ...Attr) {
	if a == nil {
		return
	}
	a.st.add(TraceSpan{SpanID: id, ParentID: parent, Name: name, Instance: instance, Start: start, Dur: dur, Attrs: attrs})
}

// Tracer returns a Tracer that assembles every reported span into the trace
// as a child of parent — the bridge that routes the solver's existing
// instrumentation (threaded by context, signatures untouched) into the
// trace tree. Nil on a nil handle, so the disabled recorder keeps contexts
// tracer-free.
func (a *ActiveTrace) Tracer(parent SpanID) Tracer {
	if a == nil {
		return nil
	}
	return traceTracer{st: a.st, parent: parent}
}

// traceTracer adapts the Tracer contract onto one trace's assembly.
type traceTracer struct {
	st     *traceState
	parent SpanID
}

func (t traceTracer) Span(name string, start time.Time, dur time.Duration, attrs []Attr) {
	t.st.add(TraceSpan{SpanID: NewSpanID(), ParentID: t.parent, Name: name, Start: start, Dur: dur, Attrs: attrs})
}

// Finish completes this participant: its root span's duration is stamped,
// err (when non-nil) marks the whole trace for retention, and when this was
// the last participant the assembled trace goes through the tail-sampling
// decision. No-op on a nil handle; must be called exactly once per Start.
func (a *ActiveTrace) Finish(err error) {
	if a == nil {
		return
	}
	st := a.st
	st.mu.Lock()
	for i := range st.spans {
		if st.spans[i].SpanID == a.root {
			st.spans[i].Dur = time.Since(a.start)
			break
		}
	}
	if err != nil && st.err == "" {
		st.err = err.Error()
	}
	st.refs--
	last := st.refs == 0 && !st.done
	if last {
		st.done = true
	}
	st.mu.Unlock()
	if last {
		st.rec.complete(st)
	}
}

// complete applies the retention policy to a fully-assembled trace.
func (f *FlightRecorder) complete(st *traceState) {
	f.completed.Add(1)
	st.mu.Lock()
	tr := &Trace{TraceID: st.id, Err: st.err, Spans: st.spans, Dropped: st.dropped}
	st.mu.Unlock()
	if len(tr.Spans) > 0 {
		start, end := tr.Spans[0].Start, tr.Spans[0].End()
		for _, s := range tr.Spans[1:] {
			if s.Start.Before(start) {
				start = s.Start
			}
			if e := s.End(); e.After(end) {
				end = e
			}
		}
		tr.Start, tr.Dur = start, end.Sub(start)
	}

	f.mu.Lock()
	delete(f.active, st.id)
	switch {
	case tr.Err != "":
		tr.Reason = KeepError
		f.keepLocked(tr)
		f.keptError.Add(1)
	case tr.Dur >= f.cfg.Threshold:
		tr.Reason = KeepSlow
		f.keepLocked(tr)
		f.keptSlow.Add(1)
	default:
		// Reservoir-sample the boring rest (algorithm R): the reservoir is
		// a uniform sample over every boring trace seen since start.
		tr.Reason = KeepSampled
		f.seen++
		f.sampled.Add(1)
		if len(f.res) < f.cfg.Reservoir {
			f.res = append(f.res, tr)
		} else if f.cfg.Reservoir > 0 {
			f.rng = f.rng*0x9e3779b97f4a7c15 + 1
			x := f.rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			if j := x % f.seen; j < uint64(f.cfg.Reservoir) {
				f.res[j] = tr
			}
		}
	}
	f.mu.Unlock()
}

// keepLocked inserts into the error/slow ring, overwriting the oldest.
func (f *FlightRecorder) keepLocked(tr *Trace) {
	if f.cfg.Capacity == 0 {
		return
	}
	if len(f.kept) < f.cfg.Capacity {
		f.kept = append(f.kept, tr)
	} else {
		f.kept[f.keptN%uint64(f.cfg.Capacity)] = tr
	}
	f.keptN++
}

// Traces snapshots every retained trace — the error/slow ring newest-first,
// then the reservoir sample newest-first. The returned traces are
// immutable; span slices are shared with the recorder and must not be
// modified. Nil-safe (empty on a disabled recorder).
func (f *FlightRecorder) Traces() []Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Trace, 0, len(f.kept)+len(f.res))
	// Ring in insertion order is kept[keptN-1], kept[keptN-2], ... modulo
	// capacity once wrapped.
	if n := len(f.kept); n > 0 {
		newest := int((f.keptN - 1) % uint64(cap(f.kept)))
		if f.keptN <= uint64(cap(f.kept)) {
			newest = n - 1
		}
		for i := 0; i < n; i++ {
			out = append(out, *f.kept[(newest-i+n)%n])
		}
	}
	for i := len(f.res) - 1; i >= 0; i-- {
		out = append(out, *f.res[i])
	}
	return out
}

// Stats returns the recorder's counters. Nil-safe.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	return FlightStats{
		Started:       f.started.Load(),
		Completed:     f.completed.Load(),
		KeptError:     f.keptError.Load(),
		KeptSlow:      f.keptSlow.Load(),
		Sampled:       f.sampled.Load(),
		DroppedActive: f.droppedActive.Load(),
	}
}
