package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/wire"
)

// FuzzWorkloadRequest posts arbitrary body bytes to each of the five
// workload paths of a gateway holding "eu" and "fin", in process. Every
// answer is 200, 400, 404, 413 or 422 — never a 500 and never a panic —
// except a 504 for a request that set a positive deadline_ms, which may
// expire. A 200 body decodes into the client's response type for its path
// with unknown fields disallowed, so the gateway and the client agree on
// the schema; any other body is the error body.
func FuzzWorkloadRequest(f *testing.F) {
	for _, wl := range wireWorkloads() {
		f.Add([]byte(wl.body))
	}
	for _, body := range []string{
		`{"instance":"eu","k":2,"index":"approx"}`,
		`{"instance":"eu","k":2} {"k":9}`,
		`{"instance":"eu","centers":"x"}`,
		`{"instance":"eu","centers":[[1e200,0]]}`,
	} {
		f.Add([]byte(body))
	}
	gw := wireGateway(f, "")
	// A lower body cap reaches the 413 path, and bounds a sweep's centers,
	// whose cost grows with their square.
	gw.workloadLimit = 4 << 10
	h := gw.mux()
	responses := map[string]func() any{
		"solve":      func() any { return new(client.SolveResponse) },
		"assign":     func() any { return new(client.AssignResponse) },
		"ecost":      func() any { return new(client.EcostResponse) },
		"sweep":      func() any { return new(client.SweepResponse) },
		"unassigned": func() any { return new(client.UnassignedResponse) },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, name := range workloads {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+name, bytes.NewReader(body)))
			out := responses[name]()
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
				out = new(wire.Error)
			case http.StatusGatewayTimeout:
				var req wire.Request
				if json.Unmarshal(body, &req) != nil || req.DeadlineMS <= 0 {
					t.Fatalf("POST /v1/%s %q: 504 without a deadline: %s", name, body, rec.Body)
				}
				out = new(wire.Error)
			default:
				t.Fatalf("POST /v1/%s %q: status %d: %s", name, body, rec.Code, rec.Body)
			}
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(out); err != nil {
				t.Fatalf("POST /v1/%s %q: %d body %q does not decode into %T: %v", name, body, rec.Code, rec.Body, out, err)
			}
			if e, ok := out.(*wire.Error); ok && e.Message == "" {
				t.Fatalf("POST /v1/%s %q: %d with an empty error message", name, body, rec.Code)
			}
		}
	})
}
