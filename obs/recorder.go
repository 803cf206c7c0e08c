package obs

import (
	"sync"
	"time"
)

// SpanRecord is one completed span as retained by a Recorder.
type SpanRecord struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it is present.
func (r SpanRecord) Attr(key string) (int64, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// Recorder is a Tracer that retains every span in memory — the test and
// debugging sink (cmd/ukserver's -trace flag layers slog output over the
// same stream). Goroutine-safe; the zero value is ready to use.
type Recorder struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// Span implements Tracer; the record keeps attrs as handed over.
func (r *Recorder) Span(name string, start time.Time, dur time.Duration, attrs []Attr) {
	r.mu.Lock()
	r.spans = append(r.spans, SpanRecord{Name: name, Start: start, Dur: dur, Attrs: attrs})
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span, in completion order.
func (r *Recorder) Spans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}

// Named returns the recorded spans with the given name, in completion order.
func (r *Recorder) Named(name string) []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanRecord
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Reset discards every recorded span.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}
