package main

// traces.go is the HTTP face of the flight recorder and the in-flight
// request table: GET /v1/traces serves the retained (tail-sampled) traces
// as JSON, filterable by instance, minimum duration and error-only; GET
// /v1/requests snapshots what both kind servers are doing right now. Both
// are debugging endpoints — cheap snapshots, no pagination, newest first.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dataio"
	"repro/obs"
	"repro/serve"
)

// spanOut is the wire shape of one span in a retained trace.
type spanOut struct {
	SpanID   string           `json:"span_id"`
	ParentID string           `json:"parent_id,omitempty"` // omitted on trace roots
	Name     string           `json:"name"`
	Instance string           `json:"instance,omitempty"`
	Start    time.Time        `json:"start"`
	DurUS    float64          `json:"dur_us"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
}

// traceOut is the wire shape of one retained trace.
type traceOut struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	DurMS   float64   `json:"dur_ms"`
	Err     string    `json:"error,omitempty"`
	Reason  string    `json:"reason"` // error | slow | sampled
	Dropped int       `json:"dropped_spans,omitempty"`
	Spans   []spanOut `json:"spans"`
}

func toTraceOut(tr obs.Trace) traceOut {
	out := traceOut{
		TraceID: tr.TraceID.String(),
		Start:   tr.Start,
		DurMS:   float64(tr.Dur.Microseconds()) / 1000,
		Err:     tr.Err,
		Reason:  string(tr.Reason),
		Dropped: tr.Dropped,
		Spans:   make([]spanOut, 0, len(tr.Spans)),
	}
	for _, sp := range tr.Spans {
		so := spanOut{
			SpanID:   sp.SpanID.String(),
			Name:     sp.Name,
			Instance: sp.Instance,
			Start:    sp.Start,
			DurUS:    float64(sp.Dur.Nanoseconds()) / 1000,
		}
		if !sp.ParentID.IsZero() {
			so.ParentID = sp.ParentID.String()
		}
		if len(sp.Attrs) > 0 {
			so.Attrs = make(map[string]int64, len(sp.Attrs))
			for _, a := range sp.Attrs {
				so.Attrs[a.Key] = a.Val
			}
		}
		out.Spans = append(out.Spans, so)
	}
	return out
}

// handleTraces serves the retained traces, newest first: the error/slow ring,
// then the reservoir sample. Query parameters: instance=<name> keeps traces
// touching that instance, min_ms=<float> keeps traces at least that long,
// error=true keeps only erred traces. A gateway without a recorder
// (-trace-retain 0) serves an empty list rather than a 404 — the endpoint's
// shape is stable across configurations.
func (g *gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if s := q.Get("min_ms"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", s))
			return
		}
		minDur = time.Duration(v * float64(time.Millisecond))
	}
	errOnly := false
	if s := q.Get("error"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad error filter %q", s))
			return
		}
		errOnly = v
	}
	instance := q.Get("instance")

	out := []traceOut{}
	for _, tr := range g.fr.Traces() {
		if instance != "" && !tr.HasInstance(instance) {
			continue
		}
		if tr.Dur < minDur {
			continue
		}
		if errOnly && tr.Err == "" {
			continue
		}
		out = append(out, toTraceOut(tr))
	}
	st := g.fr.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": out,
		"stats": map[string]any{
			"started":        st.Started,
			"completed":      st.Completed,
			"kept_error":     st.KeptError,
			"kept_slow":      st.KeptSlow,
			"sampled":        st.Sampled,
			"dropped_active": st.DroppedActive,
		},
	})
}

// inflightOut is one /v1/requests row: a serve.InflightRequest stamped with
// its instance kind.
type inflightOut struct {
	Kind string `json:"kind"`
	serve.InflightRequest
}

// handleRequests snapshots the live in-flight request tables of both kind
// servers — every admitted request with its workload, instance, shard,
// queued-or-executing state, elapsed time and (when the flight recorder is
// on) trace ID. The snapshot never stops the world; see serve.Inflight.
func (g *gateway) handleRequests(w http.ResponseWriter, r *http.Request) {
	instance := r.URL.Query().Get("instance")
	out := []inflightOut{}
	for _, row := range g.eu.Inflight() {
		out = append(out, inflightOut{Kind: dataio.KindEuclidean, InflightRequest: row})
	}
	for _, row := range g.fin.Inflight() {
		out = append(out, inflightOut{Kind: dataio.KindFinite, InflightRequest: row})
	}
	if instance != "" {
		kept := out[:0]
		for _, row := range out {
			if row.Instance == instance {
				kept = append(kept, row)
			}
		}
		out = kept
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": out})
}
