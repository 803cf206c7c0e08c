package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	ukc "repro"
	"repro/serve"
)

// The two instances every wire test registers: a four-point Euclidean
// instance and a three-point instance on a four-vertex path metric.
const (
	wireEuDoc  = `{"kind":"euclidean","points":[{"locs":[[0,0],[1,0]],"probs":[0.5,0.5]},{"locs":[[0,1]],"probs":[1]},{"locs":[[5,5],[6,5]],"probs":[0.25,0.75]},{"locs":[[5,6]],"probs":[1]}]}`
	wireFinDoc = `{"kind":"finite","metric":[[0,1,2,3],[1,0,1,2],[2,1,0,1],[3,2,1,0]],"finite_points":[{"locs":[0,1],"probs":[0.5,0.5]},{"locs":[3],"probs":[1]},{"locs":[1,2],"probs":[0.25,0.75]}]}`
)

// wireWorkload is one workload request: its path and body, and the
// response body the gateway answered it with before the wire schema had
// one declaration — a map literal, filled here from an in-process serve
// call on the same request. encoding/json sorts map keys, which is the
// order the schema's structs declare their fields in.
type wireWorkload struct {
	path, body string
	want       func(t testing.TB, gw *gateway) any
}

func wireWorkloads() []wireWorkload {
	ctx := context.Background()
	euC, euA := []ukc.Vec{{0, 0}, {5, 5}}, []int{0, 0, 1, 1}
	finC, finA := []int{0, 3}, []int{0, 1, 0}
	return []wireWorkload{
		{"/v1/solve", `{"instance":"eu","k":2}`, func(t testing.TB, gw *gateway) any {
			return solveLiteral[ukc.Vec](t)(gw.eu.Solve(ctx, serve.SolveRequest{Instance: "eu", K: 2}))
		}},
		{"/v1/solve", `{"instance":"fin","k":2,"deadline_ms":60000}`, func(t testing.TB, gw *gateway) any {
			return solveLiteral[int](t)(gw.fin.Solve(ctx, serve.SolveRequest{Instance: "fin", K: 2}))
		}},
		{"/v1/assign", `{"instance":"eu","centers":[[0,0],[5,5]]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.eu.Assign(ctx, serve.AssignRequest[ukc.Vec]{Instance: "eu", Centers: euC})
			mustOK(t, err)
			return map[string]any{"assign": resp.Assign, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/assign", `{"instance":"fin","centers":[0,3]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.fin.Assign(ctx, serve.AssignRequest[int]{Instance: "fin", Centers: finC})
			mustOK(t, err)
			return map[string]any{"assign": resp.Assign, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/ecost", `{"instance":"eu","centers":[[0,0],[5,5]],"assign":[0,0,1,1]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.eu.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: "eu", Centers: euC, Assign: euA})
			mustOK(t, err)
			return map[string]any{"ecost": resp.Ecost, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/ecost", `{"instance":"eu","centers":[[0,0],[5,5]]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.eu.Ecost(ctx, serve.EcostRequest[ukc.Vec]{Instance: "eu", Centers: euC})
			mustOK(t, err)
			return map[string]any{"ecost": resp.Ecost, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/ecost", `{"instance":"fin","centers":[0,3],"assign":[0,1,0]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.fin.Ecost(ctx, serve.EcostRequest[int]{Instance: "fin", Centers: finC, Assign: finA})
			mustOK(t, err)
			return map[string]any{"ecost": resp.Ecost, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/ecost", `{"instance":"fin","centers":[0,3]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.fin.Ecost(ctx, serve.EcostRequest[int]{Instance: "fin", Centers: finC})
			mustOK(t, err)
			return map[string]any{"ecost": resp.Ecost, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/sweep", `{"instance":"eu","centers":[[0,0],[5,5]]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.eu.EcostSweep(ctx, serve.EcostSweepRequest[ukc.Vec]{Instance: "eu", Centers: euC})
			mustOK(t, err)
			return map[string]any{"sweep": resp.Sweep, "snapped": resp.Snapped, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/sweep", `{"instance":"fin","centers":[0,3]}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.fin.EcostSweep(ctx, serve.EcostSweepRequest[int]{Instance: "fin", Centers: finC})
			mustOK(t, err)
			return map[string]any{"sweep": resp.Sweep, "snapped": resp.Snapped, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/unassigned", `{"instance":"eu","k":2}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.eu.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "eu", K: 2})
			mustOK(t, err)
			return map[string]any{"centers": resp.Centers, "ecost": resp.Ecost, "stats": statsLiteral(resp.Stats)}
		}},
		{"/v1/unassigned", `{"instance":"fin","k":2}`, func(t testing.TB, gw *gateway) any {
			resp, err := gw.fin.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "fin", K: 2})
			mustOK(t, err)
			return map[string]any{"centers": resp.Centers, "ecost": resp.Ecost, "stats": statsLiteral(resp.Stats)}
		}},
	}
}

func solveLiteral[P any](t testing.TB) func(serve.SolveResponse[P], error) any {
	return func(resp serve.SolveResponse[P], err error) any {
		mustOK(t, err)
		return map[string]any{
			"centers":          resp.Result.Centers,
			"assign":           resp.Result.Assign,
			"ecost":            resp.Result.Ecost,
			"ecost_unassigned": resp.Result.EcostUnassigned,
			"certain_radius":   resp.Result.CertainRadius,
			"effective_eps":    resp.Result.EffectiveEps,
			"stats":            statsLiteral(resp.Stats),
		}
	}
}

func mustOK(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// wireGateway is a gateway holding "eu" and "fin", with snapDir as its
// snapshot directory ("" = none).
func wireGateway(t testing.TB, snapDir string) *gateway {
	t.Helper()
	gw, err := newGateway(1, nil, nil, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.close)
	h := gw.mux()
	for name, doc := range map[string]string{"eu": wireEuDoc, "fin": wireFinDoc} {
		if rec := serveHTTP(h, http.MethodPut, "/v1/instances/"+name, doc); rec.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", name, rec.Code, rec.Body)
		}
	}
	return gw
}

// serveHTTP runs one request through h in process, with no socket.
func serveHTTP(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// statsRef is a stats block as the gateway encoded it before the schema
// was declared once (a struct, so in declaration order), with the values
// that vary from run to run zeroed.
type statsRef struct {
	Shard    int `json:"shard"`
	QueueMS  int `json:"queue_ms"`
	ExecMS   int `json:"exec_ms"`
	CacheHit int `json:"cache_hit"`
}

func statsLiteral(st serve.RequestStats) statsRef { return statsRef{Shard: st.Shard} }

// statsVarying matches the stats values that vary from run to run.
var statsVarying = regexp.MustCompile(`("queue_ms"|"exec_ms"|"cache_hit"):[^,}]*`)

// TestWireBytes pins every response body of the HTTP API byte for byte:
// each workload on both instance kinds (ecost with and without assign),
// the registry (register, duplicate register, list, freeze, unregister)
// and the 400, 404, 409 and 422 error bodies. The references are the
// map literals the gateway answered with before the schema was declared
// once, filled from in-process serve calls; only the stats block's
// timings and cache flag are zeroed, because they vary.
func TestWireBytes(t *testing.T) {
	snapDir := t.TempDir()
	gw, err := newGateway(1, nil, nil, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	h := gw.mux()
	ctx := context.Background()

	expect := func(method, path, body string, status int, want any) {
		t.Helper()
		rec := serveHTTP(h, method, path, body)
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(want); err != nil {
			t.Fatal(err)
		}
		got := statsVarying.ReplaceAllString(rec.Body.String(), `$1:0`)
		if rec.Code != status || got != ref.String() {
			t.Fatalf("%s %s %s:\n got %d %q\nwant %d %q", method, path, body, rec.Code, got, status, ref.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q", method, path, ct)
		}
	}
	type instOut struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}

	expect(http.MethodPut, "/v1/instances/eu", wireEuDoc, http.StatusCreated,
		map[string]any{"instance": "eu", "kind": "euclidean", "points": 4})
	expect(http.MethodPut, "/v1/instances/fin", wireFinDoc, http.StatusCreated,
		map[string]any{"instance": "fin", "kind": "finite", "points": 3})
	expect(http.MethodPut, "/v1/instances/eu", wireFinDoc, http.StatusConflict,
		map[string]any{"error": `instance "eu" already registered`})
	expect(http.MethodGet, "/v1/instances", "", http.StatusOK,
		map[string]any{"instances": []instOut{{"eu", "euclidean"}, {"fin", "finite"}}})

	for _, wl := range wireWorkloads() {
		expect(http.MethodPost, wl.path, wl.body, http.StatusOK, wl.want(t, gw))
	}

	// Error bodies. Decoding errors have no serve call to fill them; the
	// rest come from the same request made in process.
	expect(http.MethodPost, "/v1/unassigned", `{"instance":"eu","k":2,"index":"approx"}`, http.StatusBadRequest,
		map[string]any{"error": `json: unknown field "index"`})
	expect(http.MethodPost, "/v1/unassigned", `{"instance":"eu","k":2} {"k":9}`, http.StatusBadRequest,
		map[string]any{"error": "data after the request object"})
	_, notFound := gw.eu.Solve(ctx, serve.SolveRequest{Instance: "nope", K: 2})
	expect(http.MethodPost, "/v1/solve", `{"instance":"nope","k":2}`, http.StatusNotFound,
		map[string]any{"error": notFound.Error()})
	expect(http.MethodDelete, "/v1/instances/nope", "", http.StatusNotFound,
		map[string]any{"error": `instance "nope" not registered`})
	expect(http.MethodPost, "/v1/ecost", `{"instance":"eu"}`, http.StatusUnprocessableEntity,
		map[string]any{"error": "missing centers"})
	var centers []ukc.Vec
	badCenters := json.Unmarshal([]byte(`"x"`), &centers)
	expect(http.MethodPost, "/v1/ecost", `{"instance":"eu","centers":"x"}`, http.StatusUnprocessableEntity,
		map[string]any{"error": "parsing centers: " + badCenters.Error()})
	_, badDim := gw.eu.Assign(ctx, serve.AssignRequest[ukc.Vec]{Instance: "eu", Centers: []ukc.Vec{{0, 0, 0}}})
	expect(http.MethodPost, "/v1/assign", `{"instance":"eu","centers":[[0,0,0]]}`, http.StatusUnprocessableEntity,
		map[string]any{"error": badDim.Error()})

	// Freeze, then unregister both instances: the list empties to [].
	rec := serveHTTP(h, http.MethodPost, "/v1/instances/eu/freeze", "")
	path := filepath.Join(snapDir, "eu"+serve.SnapshotExt)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	json.NewEncoder(&ref).Encode(map[string]any{"instance": "eu", "kind": "euclidean", "path": path, "bytes": fi.Size()})
	if rec.Code != http.StatusOK || rec.Body.String() != ref.String() {
		t.Fatalf("freeze: got %d %q, want 200 %q", rec.Code, rec.Body, ref.String())
	}
	expect(http.MethodDelete, "/v1/instances/fin", "", http.StatusOK,
		map[string]any{"instance": "fin", "unregistered": true})
	expect(http.MethodDelete, "/v1/instances/eu", "", http.StatusOK,
		map[string]any{"instance": "eu", "unregistered": true})
	expect(http.MethodGet, "/v1/instances", "", http.StatusOK,
		map[string]any{"instances": []instOut{}})
}
