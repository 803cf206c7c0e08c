package obs

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// finishTrace starts a single-participant trace, records body spans via fn,
// and finishes with err.
func finishTrace(f *FlightRecorder, name string, err error, fn func(at *ActiveTrace)) TraceID {
	at := f.Start(TraceContext{}, name, "inst")
	if fn != nil {
		fn(at)
	}
	at.Finish(err)
	return at.TraceID()
}

func TestFlightRecorderKeepsErrors(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Hour})
	id := finishTrace(f, "req", errors.New("boom"), nil)
	finishTrace(f, "req", nil, nil) // boring, dropped

	traces := f.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != id || tr.Reason != KeepError || tr.Err != "boom" {
		t.Fatalf("bad retained trace: %+v", tr)
	}
	st := f.Stats()
	if st.Started != 2 || st.Completed != 2 || st.KeptError != 1 || st.Sampled != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlightRecorderKeepsSlow(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Nanosecond})
	id := finishTrace(f, "req", nil, func(at *ActiveTrace) {
		time.Sleep(time.Millisecond)
	})
	traces := f.Traces()
	if len(traces) != 1 || traces[0].TraceID != id || traces[0].Reason != KeepSlow {
		t.Fatalf("slow trace not retained: %+v", traces)
	}
	if traces[0].Dur < time.Millisecond {
		t.Fatalf("trace duration %v too small", traces[0].Dur)
	}
}

func TestFlightRecorderFastNotRetained(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Hour})
	finishTrace(f, "req", nil, nil)
	if traces := f.Traces(); len(traces) != 0 {
		t.Fatalf("fast clean trace retained: %+v", traces)
	}
}

func TestFlightRecorderReservoir(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: 4, Threshold: time.Hour, Seed: 7})
	for i := 0; i < 100; i++ {
		finishTrace(f, "req", nil, nil)
	}
	traces := f.Traces()
	if len(traces) != 4 {
		t.Fatalf("reservoir holds %d, want 4", len(traces))
	}
	for _, tr := range traces {
		if tr.Reason != KeepSampled {
			t.Fatalf("reservoir trace has reason %q", tr.Reason)
		}
	}
	if st := f.Stats(); st.Sampled != 100 {
		t.Fatalf("sampled count %d, want 100", st.Sampled)
	}
}

func TestFlightRecorderRingWraps(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Capacity: 3, Reservoir: -1, Threshold: time.Hour})
	for i := 0; i < 5; i++ {
		finishTrace(f, fmt.Sprintf("req%d", i), errors.New("e"), nil)
	}
	traces := f.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d, want 3", len(traces))
	}
	// Newest first: req4, req3, req2.
	for i, want := range []string{"req4", "req3", "req2"} {
		if traces[i].Spans[0].Name != want {
			t.Fatalf("ring[%d] = %q, want %q", i, traces[i].Spans[0].Name, want)
		}
	}
}

func TestFlightRecorderJoin(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Hour})
	client := f.Start(TraceContext{}, "client.attempt", "")
	tc := TraceContext{TraceID: client.TraceID(), SpanID: client.RootID()}
	server := f.Start(tc, "serve.request", "inst")
	if server.TraceID() != client.TraceID() {
		t.Fatal("participants did not join the same trace")
	}
	server.Finish(nil)
	if len(f.Traces()) != 0 {
		t.Fatal("trace completed before last participant finished")
	}
	client.Finish(errors.New("late failure"))

	traces := f.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("joined trace has %d spans, want 2", len(tr.Spans))
	}
	srv, ok := tr.Span("serve.request")
	if !ok || srv.ParentID != client.RootID() {
		t.Fatalf("server root not parented on client span: %+v", srv)
	}
}

func TestFlightRecorderDropsAfterFinish(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Hour})
	at := f.Start(TraceContext{}, "req", "")
	tracer := at.Tracer(at.RootID())
	at.Finish(errors.New("gone"))
	// A late worker reporting after completion must not corrupt the trace.
	at.Record(NewSpanID(), at.RootID(), "late", "", time.Now(), time.Millisecond)
	tracer.Span("later", time.Now(), time.Millisecond, nil)

	traces := f.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("late spans leaked into completed trace: %+v", traces)
	}
}

func TestFlightRecorderMaxSpans(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Hour, MaxSpans: 3})
	finishTrace(f, "req", errors.New("e"), func(at *ActiveTrace) {
		for i := 0; i < 5; i++ {
			at.Record(NewSpanID(), at.RootID(), "child", "", time.Now(), time.Microsecond)
		}
	})
	tr := f.Traces()[0]
	if len(tr.Spans) != 3 || tr.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want 3/3", len(tr.Spans), tr.Dropped)
	}
}

func TestFlightRecorderMaxActive(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{MaxActive: 1})
	a := f.Start(TraceContext{}, "a", "")
	b := f.Start(TraceContext{}, "b", "")
	if b != nil {
		t.Fatal("Start beyond MaxActive returned a live handle")
	}
	b.Finish(nil) // nil-safe
	a.Finish(nil)
	if st := f.Stats(); st.DroppedActive != 1 {
		t.Fatalf("droppedActive = %d, want 1", st.DroppedActive)
	}
	// Joining an existing trace is exempt from the cap.
	a2 := f.Start(TraceContext{}, "a2", "")
	j := f.Start(TraceContext{TraceID: a2.TraceID()}, "join", "")
	if j == nil {
		t.Fatal("join refused by MaxActive cap")
	}
	j.Finish(nil)
	a2.Finish(nil)
}

func TestFlightRecorderTracerAssembles(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Reservoir: -1, Threshold: time.Hour})
	var execID SpanID
	finishTrace(f, "req", errors.New("e"), func(at *ActiveTrace) {
		execID = at.NewSpanID()
		tr := at.Tracer(execID)
		start := time.Now()
		tr.Span("ls.descent", start, time.Millisecond, []Attr{{Key: "iters", Val: 3}})
		at.Record(execID, at.RootID(), "serve.exec", "inst", start, 2*time.Millisecond)
	})
	tr := f.Traces()[0]
	ls, ok := tr.Span("ls.descent")
	if !ok || ls.ParentID != execID || len(ls.Attrs) != 1 || ls.Attrs[0].Key != "iters" {
		t.Fatalf("solver span not assembled under exec: %+v", ls)
	}
	exec, ok := tr.Span("serve.exec")
	if !ok || exec.SpanID != execID {
		t.Fatalf("exec span missing: %+v", exec)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	at := f.Start(TraceContext{}, "req", "")
	if at != nil {
		t.Fatal("nil recorder returned a handle")
	}
	if !at.TraceID().IsZero() || !at.RootID().IsZero() || !at.NewSpanID().IsZero() {
		t.Fatal("nil handle returned non-zero IDs")
	}
	if at.Tracer(SpanID{}) != nil {
		t.Fatal("nil handle returned a tracer")
	}
	at.Record(SpanID{}, SpanID{}, "x", "", time.Time{}, 0)
	at.Finish(nil)
	if tr := f.Traces(); tr != nil {
		t.Fatal("nil recorder returned traces")
	}
	if st := f.Stats(); st != (FlightStats{}) {
		t.Fatal("nil recorder returned stats")
	}
}

func TestFlightRecorderDisabledAllocs(t *testing.T) {
	var f *FlightRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		at := f.Start(TraceContext{}, "req", "inst")
		_ = at.NewSpanID()
		_ = at.Tracer(SpanID{})
		at.Record(SpanID{}, SpanID{}, "x", "", time.Time{}, 0)
		at.Finish(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled flight recorder path allocates: %v allocs/op", allocs)
	}
}
