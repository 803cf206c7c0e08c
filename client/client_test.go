package client

// Deterministic retry/breaker contract tests: every test drives the
// client's injected clock and sleep hooks, so no test ever sleeps for
// real or depends on wall-clock timing.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// testClient builds a client against url with a fake clock and a recording
// sleep hook that never actually sleeps.
func testClient(t *testing.T, url string, opts ...Option) (*Client, *[]time.Duration, *time.Time) {
	t.Helper()
	c, err := New(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1700000000, 0)
	var waits []time.Duration
	c.now = func() time.Time { return clock }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		clock = clock.Add(d)
		return ctx.Err()
	}
	return c, &waits, &clock
}

func jsonHandler(status int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}
}

func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			jsonHandler(http.StatusServiceUnavailable, `{"error":"draining"}`)(w, r)
			return
		}
		jsonHandler(http.StatusOK, `{"ecost": 4.5, "stats": {"shard": 1}}`)(w, r)
	}))
	defer ts.Close()

	c, waits, _ := testClient(t, ts.URL)
	resp, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0)
	if err != nil {
		t.Fatalf("Ecost: %v", err)
	}
	if resp.Ecost != 4.5 || resp.Stats.Shard != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	// Two retries, exponential envelope with jitter in [d/2, d): first in
	// [25ms, 50ms), second in [50ms, 100ms).
	if len(*waits) != 2 {
		t.Fatalf("waits = %v, want 2 entries", *waits)
	}
	if (*waits)[0] < 25*time.Millisecond || (*waits)[0] >= 50*time.Millisecond {
		t.Fatalf("first backoff %v outside [25ms, 50ms)", (*waits)[0])
	}
	if (*waits)[1] < 50*time.Millisecond || (*waits)[1] >= 100*time.Millisecond {
		t.Fatalf("second backoff %v outside [50ms, 100ms)", (*waits)[1])
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			jsonHandler(http.StatusTooManyRequests, `{"error":"queue full"}`)(w, r)
			return
		}
		jsonHandler(http.StatusOK, `{"ecost": 1}`)(w, r)
	}))
	defer ts.Close()

	c, waits, _ := testClient(t, ts.URL)
	if _, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0); err != nil {
		t.Fatalf("Ecost: %v", err)
	}
	// The server asked for 3s; the jittered backoff (< 50ms) must lose to it.
	if len(*waits) != 1 || (*waits)[0] != 3*time.Second {
		t.Fatalf("waits = %v, want exactly [3s]", *waits)
	}
}

func TestOverloadedExhaustsAttempts(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		jsonHandler(http.StatusTooManyRequests, `{"error":"queue full"}`)(w, r)
	}))
	defer ts.Close()

	c, _, _ := testClient(t, ts.URL, WithMaxAttempts(3))
	_, err := c.Solve(context.Background(), "a", 2, 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests || se.Message != "queue full" {
		t.Fatalf("StatusError not recoverable from %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want all 3 attempts", calls.Load())
	}
	// 429 means the host answered: it must never trip the breaker.
	if c.BreakerState() != BreakerClosed {
		t.Fatalf("breaker = %d after 429s, want closed", c.BreakerState())
	}
}

func TestPermanentErrorsNotRetried(t *testing.T) {
	cases := []struct {
		status int
		body   string
		want   error
	}{
		{http.StatusNotFound, `{"error":"no such instance"}`, ErrNotFound},
		{http.StatusGatewayTimeout, `{"error":"deadline"}`, ErrRemoteDeadline},
		{http.StatusUnprocessableEntity, `{"error":"bad request"}`, nil},
	}
	for _, tc := range cases {
		var calls atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			jsonHandler(tc.status, tc.body)(w, r)
		}))
		c, waits, _ := testClient(t, ts.URL)
		_, err := c.Solve(context.Background(), "a", 2, 0)
		ts.Close()
		if err == nil {
			t.Fatalf("status %d: err = nil", tc.status)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("status %d: err = %v, want %v", tc.status, err, tc.want)
		}
		if calls.Load() != 1 || len(*waits) != 0 {
			t.Fatalf("status %d: calls = %d waits = %v, want a single attempt", tc.status, calls.Load(), *waits)
		}
		if c.BreakerState() != BreakerClosed {
			t.Fatalf("status %d: breaker tripped by a permanent client error", tc.status)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	var mode atomic.Int32 // 0: fail 500, 1: succeed
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if mode.Load() == 0 {
			jsonHandler(http.StatusInternalServerError, `{"error":"boom"}`)(w, r)
			return
		}
		jsonHandler(http.StatusOK, `{"ecost": 2}`)(w, r)
	}))
	defer ts.Close()

	// threshold 3 with 3 attempts per call: one call opens the circuit.
	c, _, clock := testClient(t, ts.URL, WithMaxAttempts(3), WithBreaker(3, 5*time.Second))
	if _, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0); err == nil {
		t.Fatal("err = nil, want failure")
	}
	if c.BreakerState() != BreakerOpen {
		t.Fatalf("breaker = %d after %d consecutive 500s, want open", c.BreakerState(), calls.Load())
	}
	if g := c.BreakerGauge().Load(); g != BreakerOpen {
		t.Fatalf("gauge = %d, want %d", g, BreakerOpen)
	}

	// Open circuit: fail fast, no network I/O.
	before := calls.Load()
	if _, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still hit the network")
	}

	// Past the cooldown the next call is the half-open probe; the host has
	// recovered, so the probe closes the circuit.
	mode.Store(1)
	*clock = clock.Add(6 * time.Second)
	if _, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if c.BreakerState() != BreakerClosed {
		t.Fatalf("breaker = %d after successful probe, want closed", c.BreakerState())
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	ts := httptest.NewServer(jsonHandler(http.StatusInternalServerError, `{"error":"boom"}`))
	defer ts.Close()

	c, _, clock := testClient(t, ts.URL, WithMaxAttempts(1), WithBreaker(1, 5*time.Second))
	c.Ecost(context.Background(), "a", []int{0}, nil, 0) // opens on first failure
	if c.BreakerState() != BreakerOpen {
		t.Fatalf("breaker = %d, want open", c.BreakerState())
	}
	*clock = clock.Add(6 * time.Second)
	if _, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0); err == nil {
		t.Fatal("probe against a dead host succeeded")
	}
	// The failed probe reopens immediately — no threshold re-count.
	if c.BreakerState() != BreakerOpen {
		t.Fatalf("breaker = %d after failed probe, want open", c.BreakerState())
	}
	if _, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen before next cooldown", err)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(1, time.Second, func() time.Time { return time.Unix(1700000010, 0) })
	b.mu.Lock()
	b.set(BreakerOpen)
	b.openedAt = time.Unix(1700000000, 0)
	b.mu.Unlock()
	if !b.allow() {
		t.Fatal("first caller past the cooldown must be admitted as the probe")
	}
	if b.current() != BreakerHalfOpen {
		t.Fatalf("state = %d, want half-open", b.current())
	}
	if b.allow() {
		t.Fatal("second caller admitted while the probe is in flight")
	}
}

func TestPerAttemptTimeout(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // first attempt hangs past its per-attempt timeout
			return
		}
		jsonHandler(http.StatusOK, `{"ecost": 7}`)(w, r)
	}))
	defer ts.Close()
	defer close(release)

	c, _, _ := testClient(t, ts.URL, WithAttemptTimeout(50*time.Millisecond))
	resp, err := c.Ecost(context.Background(), "a", []int{0}, nil, 0)
	if err != nil {
		t.Fatalf("Ecost: %v", err)
	}
	if resp.Ecost != 7 || calls.Load() != 2 {
		t.Fatalf("resp=%+v calls=%d: hung attempt was not abandoned and retried", resp, calls.Load())
	}
}

func TestCallerContextBoundsRetries(t *testing.T) {
	ts := httptest.NewServer(jsonHandler(http.StatusServiceUnavailable, `{"error":"down"}`))
	defer ts.Close()

	c, _, _ := testClient(t, ts.URL, WithMaxAttempts(10))
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	c.sleep = func(sctx context.Context, d time.Duration) error {
		calls++
		cancel() // the deadline lands while backing off
		return sctx.Err()
	}
	_, err := c.Solve(ctx, "a", 2, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want the last 503 preserved in the chain", err)
	}
	if calls != 1 {
		t.Fatalf("kept retrying after the context died: %d sleeps", calls)
	}
}

func TestWireShapes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		switch r.URL.Path {
		case "/v1/solve":
			// A positive deadline under a millisecond rounds up to one,
			// never down to 0, which the gateway reads as no deadline.
			if want := map[string]int64{"eu": 250, "tiny": 1}[req.Instance]; req.K != 3 || req.DeadlineMS != want || want == 0 {
				t.Errorf("solve request = %+v", req)
			}
			jsonHandler(http.StatusOK, `{"centers": [[1,2],[3,4]], "assign": [0,1], "ecost": 9.5,
				"stats": {"shard": 2, "queue_ms": 0.5, "exec_ms": 1.5, "cache_hit": true}}`)(w, r)
		case "/v1/assign":
			var got [][]float64
			if err := json.Unmarshal(req.Centers, &got); err != nil || len(got) != 2 {
				t.Errorf("assign centers = %s (%v)", req.Centers, err)
			}
			jsonHandler(http.StatusOK, `{"assign": [1,0]}`)(w, r)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer ts.Close()

	c, _, _ := testClient(t, ts.URL)
	solve, err := c.Solve(context.Background(), "eu", 3, 250*time.Millisecond)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	centers, err := DecodeCenters[[2]float64](solve.Centers)
	if err != nil {
		t.Fatalf("DecodeCenters: %v", err)
	}
	if len(centers) != 2 || centers[1] != [2]float64{3, 4} {
		t.Fatalf("centers = %v", centers)
	}
	if solve.Ecost != 9.5 || !solve.Stats.CacheHit || solve.Stats.Shard != 2 {
		t.Fatalf("solve = %+v", solve)
	}
	if _, err := c.Solve(context.Background(), "tiny", 3, 500*time.Microsecond); err != nil {
		t.Fatalf("Solve with a sub-millisecond deadline: %v", err)
	}
	assign, err := c.Assign(context.Background(), "eu", [][]float64{{0, 0}, {5, 5}}, 0)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if len(assign.Assign) != 2 || assign.Assign[0] != 1 {
		t.Fatalf("assign = %+v", assign)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"-1", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Fatal("New(\"\") succeeded")
	}
	c, err := New("http://example.test/")
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://example.test" {
		t.Fatalf("base = %q, trailing slash kept", c.base)
	}
}
