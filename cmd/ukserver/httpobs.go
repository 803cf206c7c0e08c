package main

// httpobs.go is the binary's HTTP observability shell: structured
// per-request logs with request-ID propagation, the optional pprof
// handlers, and the slog-backed solver tracer behind -trace.

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/obs"
)

// newRequestID returns a fresh 16-hex-char request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// the server up and the logs honest about it.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// requestLog wraps a handler with one structured log line per request. An
// incoming X-Request-ID is honored (so a caller's ID threads through to
// the log); otherwise one is generated. Either way the ID is echoed on the
// response, letting clients correlate their traces with the server log.
//
// It is also the trace-context ingress: a valid incoming W3C traceparent is
// parsed and threaded down to the serving layer through the request context
// (so the gateway's serve.request root joins the caller's trace), and a
// request without one roots a fresh trace here — every log line carries its
// trace ID either way. The request's duration lands in lat, the gateway's
// request-duration histogram; a slow bucket there leads to its traces
// through GET /v1/traces?min_ms=.
func requestLog(logger *slog.Logger, lat *obs.Histogram, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tc = obs.TraceContext{TraceID: obs.NewTraceID()}
		}
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tc))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		lat.Observe(dur.Seconds())
		logger.Info("request",
			"id", id,
			"trace", tc.TraceID.String(),
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", float64(dur.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// registerPprof mounts the net/http/pprof handlers on the mux. They are
// behind the -pprof flag because profile endpoints on a serving port are
// an operational decision, not a default.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// slogTracer adapts a slog.Logger to obs.Tracer: each solver span becomes
// one debug-level log line with its integer attributes inlined. Installed
// via ukc.WithTracer when -trace is set.
type slogTracer struct{ logger *slog.Logger }

func (t slogTracer) Span(name string, start time.Time, dur time.Duration, attrs []obs.Attr) {
	args := make([]any, 0, 2*len(attrs)+2)
	args = append(args, "dur_us", dur.Microseconds())
	for _, a := range attrs {
		args = append(args, a.Key, a.Val)
	}
	t.logger.Debug("span "+name, args...)
}
