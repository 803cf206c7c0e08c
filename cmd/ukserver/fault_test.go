package main

// End-to-end fault semantics over real HTTP: the panic→500 mapping, the
// Retry-After contract on 429 and draining 503s, and the public client
// package driving the gateway — including its typed error mapping.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/dataio"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/serve"
)

// euDoc renders a small euclidean instance document for registration.
func euDoc(t *testing.T, seed int64) string {
	t.Helper()
	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(seed)), 15, 3, 2, 2, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := dataio.WriteEuclidean(&body, pts); err != nil {
		t.Fatal(err)
	}
	return body.String()
}

func TestStatusForFaultTyped(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{serve.ErrDraining, http.StatusServiceUnavailable},
		{serve.ErrClosed, http.StatusServiceUnavailable},
		{serve.ErrPanicked, http.StatusInternalServerError},
		{&serve.PanicError{Value: "boom"}, http.StatusInternalServerError},
		{serve.ErrOverloaded, http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	if got := retryAfterHeader(10 * time.Millisecond); got != "1" {
		t.Errorf("retryAfterHeader(10ms) = %q, want floor \"1\"", got)
	}
	if got := retryAfterHeader(1500 * time.Millisecond); got != "2" {
		t.Errorf("retryAfterHeader(1.5s) = %q, want ceiling \"2\"", got)
	}
}

// TestGatewayPanicMaps500 pins the HTTP face of panic isolation: an injected
// solver panic surfaces as a 500 with the panic typed in the body, and the
// very next request on the same worker pool succeeds.
func TestGatewayPanicMaps500(t *testing.T) {
	gw, err := newGateway(1, nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/instances/a", strings.NewReader(euDoc(t, 3)))
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v %v", err, resp)
	}

	faults.Enable(faults.Plan{Seed: 7, Rules: map[string]faults.Rule{
		"serve.exec": {Panic: 1},
	}})
	out, status, err := postJSON(http.DefaultClient, ts.URL+"/v1/solve", `{"instance":"a","k":2}`)
	faults.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked solve: status %d, want 500: %s", status, out)
	}
	if !bytes.Contains(out, []byte("panic")) {
		t.Fatalf("panicked solve body carries no panic message: %s", out)
	}

	// The worker survived: same pool, clean answer.
	out, status, err = postJSON(http.DefaultClient, ts.URL+"/v1/solve", `{"instance":"a","k":2}`)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-panic solve: status %d err %v: %s", status, err, out)
	}

	// The panic is accounted in the serving metrics.
	if n := gw.eu.Metrics().Totals().Panicked; n != 1 {
		t.Fatalf("panicked total = %d, want 1", n)
	}
}

// TestGatewayRetryAfterAndDrain drives the full overload→drain story over
// HTTP: a wedged single-worker single-slot gateway answers 429 with a
// Retry-After hint, a draining gateway answers 503 with Retry-After while
// admitted work completes, and the drain lets that work finish cleanly.
func TestGatewayRetryAfterAndDrain(t *testing.T) {
	gw, err := newGateway(1, nil, nil, "",
		serve.WithShards(1), serve.WithWorkersPerShard(1), serve.WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/instances/a", strings.NewReader(euDoc(t, 4)))
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v %v", err, resp)
	}

	// Every execution now takes >= 300ms, giving the test a window in which
	// the worker is provably busy and the drain provably in progress.
	faults.Enable(faults.Plan{Seed: 1, Rules: map[string]faults.Rule{
		"serve.exec": {Latency: 1, Delay: 300 * time.Millisecond},
	}})
	defer faults.Disable()

	admitted := func() (int, int) {
		tot := gw.eu.Metrics().Totals()
		return int(tot.Admitted), tot.QueueDepth
	}

	solve := func(dst *int) func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, status, err := postJSON(http.DefaultClient, ts.URL+"/v1/solve", `{"instance":"a","k":2}`)
			if err != nil {
				t.Errorf("background solve: %v", err)
			}
			*dst = status
		}()
		return func() { <-done }
	}

	// Wedge the worker (solve A), fill the one queue slot (solve B).
	var statusA, statusB int
	joinA := solve(&statusA)
	waitFor(t, func() bool { a, q := admitted(); return a == 1 && q == 0 })
	joinB := solve(&statusB)
	waitFor(t, func() bool { a, _ := admitted(); return a == 2 })

	// The queue is full: a third solve is rejected 429 with a Retry-After.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"instance":"a","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded solve: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carries no Retry-After")
	}

	// Drain. While admitted work runs, new requests get a typed 503 with a
	// Retry-After; the admitted solves still complete.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- gw.shutdown(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"instance":"a","k":2}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(body, []byte("draining")) {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("draining 503 carries no Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed a draining 503 (last: %d %s)", resp.StatusCode, body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	joinA()
	joinB()
	if statusA != http.StatusOK || statusB != http.StatusOK {
		t.Fatalf("admitted solves across the drain: %d/%d, want 200/200", statusA, statusB)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientAgainstGateway runs the public client package against a live
// gateway: registry round trip, typed workloads with center decoding, typed
// error mapping, and the post-shutdown ErrUnavailable contract.
func TestClientAgainstGateway(t *testing.T) {
	gw, err := newGateway(1, nil, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	ts := httptest.NewServer(gw.mux())
	defer ts.Close()

	c, err := client.New(ts.URL,
		client.WithMaxAttempts(2),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := c.Register(ctx, "fleet", []byte(euDoc(t, 5))); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(ctx, "fleet", []byte(euDoc(t, 5))); err == nil {
		t.Fatal("duplicate Register succeeded")
	} else {
		var se *client.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusConflict {
			t.Fatalf("duplicate Register: %v, want 409 StatusError", err)
		}
	}
	insts, err := c.List(ctx)
	if err != nil || len(insts) != 1 || insts[0].Name != "fleet" || insts[0].Kind != dataio.KindEuclidean {
		t.Fatalf("List = %v, %v", insts, err)
	}

	solve, err := c.Solve(ctx, "fleet", 2, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	centers, err := client.DecodeCenters[[]float64](solve.Centers)
	if err != nil || len(centers) != 2 || len(centers[0]) != 2 {
		t.Fatalf("DecodeCenters = %v, %v", centers, err)
	}
	ec, err := c.Ecost(ctx, "fleet", centers, solve.Assign, 0)
	if err != nil {
		t.Fatalf("Ecost: %v", err)
	}
	if ec.Ecost != solve.Ecost {
		t.Fatalf("Ecost(%v) = %v, want the solve's own cost %v", centers, ec.Ecost, solve.Ecost)
	}
	if _, err := c.Solve(ctx, "ghost", 2, 0); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("Solve(ghost): %v, want ErrNotFound", err)
	}
	if _, _, err := c.Freeze(ctx, "fleet"); err != nil {
		t.Fatalf("Freeze: %v", err)
	}

	// A shut-down gateway is typed ErrUnavailable through the client. The
	// instance stays registered — the workload router resolves the name
	// before admission, and an unknown name would 404 first.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); gw.shutdown(ctx) }()
	wg.Wait()
	if _, err := c.Solve(ctx, "fleet", 2, 0); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("Solve after shutdown: %v, want ErrUnavailable", err)
	}
	if err := c.Unregister(ctx, "fleet"); err != nil {
		t.Fatalf("Unregister on a drained gateway (registry op, not a request): %v", err)
	}
}
