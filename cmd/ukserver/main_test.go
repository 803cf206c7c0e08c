package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/wire"
)

func TestHTTPStatusMapping(t *testing.T) {
	gw, err := newGateway(1, nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(3)), 15, 3, 2, 2, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := dataio.WriteEuclidean(&body, pts); err != nil {
		t.Fatal(err)
	}
	doc := body.String()

	do := func(method, path, payload string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := do(http.MethodPut, "/v1/instances/a", doc); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	// Duplicate registration conflicts — including under the OTHER kind:
	// names are unique across kinds, or the router would shadow one copy.
	if resp := do(http.MethodPut, "/v1/instances/a", doc); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", resp.StatusCode)
	}
	finDoc := `{"kind":"finite","metric":[[0,1],[1,0]],"finite_points":[{"locs":[0,1],"probs":[0.5,0.5]}]}`
	if resp := do(http.MethodPut, "/v1/instances/a", finDoc); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-kind duplicate register: %d, want 409", resp.StatusCode)
	}
	// Garbage documents are unprocessable; garbage JSON is a bad request.
	if resp := do(http.MethodPut, "/v1/instances/b", `{"kind":"euclidean","points":[{"locs":[[1,2]],"probs":[0.2]}]}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid instance: %d, want 422", resp.StatusCode)
	}
	if resp := do(http.MethodPut, "/v1/instances/c", `{nope`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d, want 400", resp.StatusCode)
	}
	// An instance document is strict too: the format has no candidates
	// field, so a document carrying one is unprocessable rather than
	// registered with every location as a candidate.
	withCands := strings.TrimSuffix(strings.TrimSpace(doc), "}") + `,"candidates":[[9,9]]}`
	if resp := do(http.MethodPut, "/v1/instances/d", withCands); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("document with an unknown field: %d, want 422", resp.StatusCode)
	}
	// A workload body is exactly one object of the request's fields: an
	// unknown field (the retired "index" among them) or a second value
	// after the object is a bad request, not a field silently ignored.
	if resp := do(http.MethodPost, "/v1/unassigned", `{"instance":"a","k":2,"index":"approx"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}
	if resp := do(http.MethodPost, "/v1/unassigned", `{"instance":"a","k":2} {"k":9}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("data after the object: %d, want 400", resp.StatusCode)
	}
	// deadline_ms 0 means "no per-request deadline": the solve succeeds.
	if resp := do(http.MethodPost, "/v1/solve", `{"instance":"a","k":2,"deadline_ms":0}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if resp := do(http.MethodPost, "/v1/ecost", `{"instance":"a"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ecost without centers: %d, want 422", resp.StatusCode)
	}
	// A center of the wrong dimension is bad input (422), not a solver
	// panic (500) counted against the panicked outcome.
	for _, path := range []string{"/v1/ecost", "/v1/assign", "/v1/sweep"} {
		if resp := do(http.MethodPost, path, `{"instance":"a","centers":[[0,0,0]]}`); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s with a 3-d center: %d, want 422", path, resp.StatusCode)
		}
	}
	if n := gw.eu.Metrics().Totals().Panicked; n != 0 {
		t.Fatalf("panicked = %d after malformed centers, want 0", n)
	}
	// A center far enough away overflows the squared distance, and the cost
	// is +Inf, which encoding/json cannot encode: the answer is a 422 with
	// an error body, with or without assign, never a 200 with no body.
	zeros := strings.TrimSuffix(strings.Repeat("0,", 15), ",")
	for _, payload := range []string{
		`{"instance":"a","centers":[[1e200,0]]}`,
		`{"instance":"a","centers":[[1e200,0]],"assign":[` + zeros + `]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ecost", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || err != nil || !strings.Contains(e.Message, "+Inf") {
			t.Fatalf("unencodable cost %s: %d, error body %q (%v); want 422 naming +Inf", payload, resp.StatusCode, e.Message, err)
		}
	}
	if resp := do(http.MethodGet, "/v1/metrics", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics: %d, want 404", resp.StatusCode)
	}
	if resp := do(http.MethodDelete, "/v1/instances/zzz", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregister unknown: %d, want 404", resp.StatusCode)
	}
	// Freezing without a snapshot directory is a configuration conflict, not
	// a not-found: the instance exists, the server just has nowhere to put it.
	if resp := do(http.MethodPost, "/v1/instances/a/freeze", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze without snapshot dir: %d, want 409", resp.StatusCode)
	}
}

// TestOversizedBody413 pins the body caps: a register or workload body over
// its cap is answered 413 (not 400), and the server keeps serving. The caps
// are lowered so the oversized bodies stay small.
func TestOversizedBody413(t *testing.T) {
	gw, err := newGateway(1, nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	if gw.registerLimit != maxRegisterBody || gw.workloadLimit != maxWorkloadBody {
		t.Fatalf("caps = %d/%d, want %d/%d", gw.registerLimit, gw.workloadLimit, maxRegisterBody, maxWorkloadBody)
	}
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(4)), 12, 2, 2, 2, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := dataio.WriteEuclidean(&body, pts); err != nil {
		t.Fatal(err)
	}
	doc := body.String()
	solve := `{"instance":"a","k":2}`
	gw.registerLimit = int64(len(doc))
	gw.workloadLimit = 256

	do := func(method, path, payload string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := do(http.MethodPut, "/v1/instances/a", " "+doc); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register: %d, want 413", code)
	}
	if code := do(http.MethodPut, "/v1/instances/a", doc); code != http.StatusCreated {
		t.Fatalf("register at the cap: %d, want 201", code)
	}
	big := `{"instance":"a","centers":[` + strings.Repeat("[0,0],", 64) + `[0,0]]}`
	if code := do(http.MethodPost, "/v1/ecost", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized workload: %d, want 413", code)
	}
	if code := do(http.MethodPost, "/v1/solve", `{nope`); code != http.StatusBadRequest {
		t.Fatalf("malformed workload: %d, want 400", code)
	}
	if code := do(http.MethodPost, "/v1/solve", solve); code != http.StatusOK {
		t.Fatalf("solve after the 413s: %d, want 200", code)
	}
}

// TestFreezeNameSanitization pins that a percent-encoded path separator in
// the instance name cannot direct the snapshot outside the directory.
func TestFreezeNameSanitization(t *testing.T) {
	gw, err := newGateway(1, nil, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()
	for _, name := range []string{"%2e%2e", "..%2fescape", "a%2fb"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/instances/"+name+"/freeze", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("freeze %q: %d, want 400", name, resp.StatusCode)
		}
	}
}
