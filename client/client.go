// Package client is the Go HTTP client for cmd/ukserver: typed workload
// calls (solve, assign, ecost, sweep, unassigned) and registry operations
// over the gateway's JSON API, wrapped in the retry contract the serving
// layer's admission control assumes callers implement.
//
// Every call runs under the caller's context with per-attempt timeouts
// layered beneath it: one slow attempt is abandoned and retried rather than
// consuming the whole deadline. Retries back off exponentially with seeded
// jitter, honor Retry-After on 429/503 responses (cmd/ukserver derives the
// header from live queue depth and latency), and flow through a per-host
// circuit breaker: after a run of transport errors or 5xx responses the
// circuit opens and calls fail fast with ErrCircuitOpen until a cooldown
// probe succeeds, so a dead replica costs nanoseconds instead of timeouts.
// The breaker state is exported on an obs gauge (BreakerGauge) — the future
// replica router is a thin loop over a []*Client, routing around open
// circuits.
//
// The request and response bodies are declared once, in internal/wire,
// which cmd/ukserver encodes with: each response type here embeds its wire
// type, and Stats and Instance are aliases of theirs.
//
// Workload requests are deterministic and idempotent on the server, so
// retrying them is always safe; Register retries are safe too (a duplicate
// registration fails 409, which is permanent and not retried).
//
// Failures are typed: errors.Is(err, client.ErrOverloaded) matches a 429
// regardless of which attempt produced it, ErrNotFound a 404, ErrUnavailable
// a 503, ErrRemoteDeadline a 504; errors.As(err, *StatusError) recovers the
// raw status, server message and Retry-After.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/obs"
)

// Typed failure sentinels; match with errors.Is. StatusError carries the
// underlying response detail.
var (
	// ErrCircuitOpen is returned without any network I/O while the host's
	// circuit breaker is open (or a half-open probe is already in flight).
	ErrCircuitOpen = errors.New("client: circuit breaker open")
	// ErrNotFound matches a 404 — the named instance is not registered.
	ErrNotFound = errors.New("client: instance not found")
	// ErrOverloaded matches a 429 — the shard queue was full on every
	// attempt; the server's Retry-After was honored between attempts.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrUnavailable matches a 503 — the server is draining or closed.
	ErrUnavailable = errors.New("client: server unavailable")
	// ErrRemoteDeadline matches a 504 — the request's deadline expired
	// inside the server. Not retried: the deadline travels with the request,
	// so a retry would expire the same way.
	ErrRemoteDeadline = errors.New("client: deadline exceeded on server")
)

// StatusError is a non-2xx response: the status code, the server's error
// message, the parsed Retry-After (0 when absent), and the request ID the
// failing attempt carried (echoed by the gateway — grep its logs for it).
// Its Is method maps the well-known statuses onto the package sentinels.
type StatusError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
	RequestID  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

func (e *StatusError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.Status == http.StatusNotFound
	case ErrOverloaded:
		return e.Status == http.StatusTooManyRequests
	case ErrUnavailable:
		return e.Status == http.StatusServiceUnavailable
	case ErrRemoteDeadline:
		return e.Status == http.StatusGatewayTimeout
	}
	return false
}

// config is the resolved client configuration.
type config struct {
	httpClient       *http.Client
	attemptTimeout   time.Duration
	maxAttempts      int
	backoffBase      time.Duration
	backoffMax       time.Duration
	seed             int64
	breakerThreshold int
	breakerCooldown  time.Duration
	recorder         *obs.FlightRecorder
}

func defaultConfig() config {
	return config{
		httpClient:       http.DefaultClient,
		attemptTimeout:   10 * time.Second,
		maxAttempts:      4,
		backoffBase:      50 * time.Millisecond,
		backoffMax:       2 * time.Second,
		seed:             1,
		breakerThreshold: 5,
		breakerCooldown:  5 * time.Second,
	}
}

// Option configures a Client.
type Option func(*config)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient). Per-attempt timeouts are applied via context, so the
// replacement needs no Timeout of its own.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *config) {
		if hc != nil {
			c.httpClient = hc
		}
	}
}

// WithAttemptTimeout bounds each individual attempt (default 10s; 0
// disables). The caller's context still bounds the call as a whole — an
// attempt runs under whichever expires first.
func WithAttemptTimeout(d time.Duration) Option {
	return func(c *config) { c.attemptTimeout = d }
}

// WithMaxAttempts caps the attempts per call, first try included (default
// 4; minimum 1).
func WithMaxAttempts(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.maxAttempts = n
		}
	}
}

// WithBackoff sets the exponential backoff's base and cap (defaults 50ms
// and 2s): retry n waits a jittered duration in [base·2ⁿ/2, base·2ⁿ],
// clamped to max — or longer if the server's Retry-After asks for it.
func WithBackoff(base, max time.Duration) Option {
	return func(c *config) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithSeed seeds the backoff jitter (default 1): two clients with different
// seeds that fail simultaneously retry at different moments, which is the
// point of jitter; one client with a fixed seed retries reproducibly, which
// is the point of seeding it.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithBreaker tunes the circuit breaker: the circuit opens after threshold
// consecutive breaker-class failures (transport errors, 500/502/503) and
// probes again after cooldown (defaults 5 and 5s). threshold <= 0 keeps the
// default.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) {
		if threshold > 0 {
			c.breakerThreshold = threshold
		}
		if cooldown > 0 {
			c.breakerCooldown = cooldown
		}
	}
}

// WithFlightRecorder installs a flight recorder on the client: every call
// becomes a trace participant whose attempts are child spans (attempt
// number and HTTP status as attributes) and whose breaker transitions are
// marker spans, retained under the recorder's tail-sampling policy. When
// client and server share one recorder in-process, client and server spans
// assemble into a single trace. Nil (the default) records nothing; the
// traceparent and X-Request-ID headers are sent regardless.
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(c *config) { c.recorder = f }
}

// Client is a ukserver API client for one base URL. It is goroutine-safe;
// construct once per host and share.
type Client struct {
	base string
	cfg  config
	br   *breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	// Test hooks: the clock the breaker and Retry-After math read, and the
	// interruptible sleep between attempts.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a client for the ukserver at baseURL (e.g.
// "http://localhost:8080"); a trailing slash is tolerated.
func New(baseURL string, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("client: empty base URL")
	}
	if baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{
		base:  baseURL,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		now:   time.Now,
		sleep: sleepCtx,
	}
	c.br = newBreaker(cfg.breakerThreshold, cfg.breakerCooldown, func() time.Time { return c.now() })
	return c, nil
}

// BreakerState returns the circuit breaker's current state: BreakerClosed,
// BreakerOpen or BreakerHalfOpen.
func (c *Client) BreakerState() int { return c.br.current() }

// BreakerGauge returns the obs gauge mirroring the breaker state (0 closed,
// 1 open, 2 half-open) for export alongside the caller's other metrics.
func (c *Client) BreakerGauge() *obs.Gauge { return &c.br.gauge }

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the jittered wait before retry n (0-based): uniform in
// [base·2ⁿ/2, base·2ⁿ], clamped to the configured max.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.backoffBase << uint(n)
	if d <= 0 || d > c.cfg.backoffMax {
		d = c.cfg.backoffMax
	}
	c.rngMu.Lock()
	u := c.rng.Float64()
	c.rngMu.Unlock()
	return d/2 + time.Duration(u*float64(d/2))
}

// classify sorts one attempt's failure: retryable decides whether another
// attempt may help, breakerFail whether the failure indicts the host
// (transport errors and 500/502/503) rather than the request (4xx, 504) or
// its load class (429 — the host is healthy, just full).
func classify(err error) (retryable, breakerFail bool) {
	var se *StatusError
	if !errors.As(err, &se) {
		// Transport-level: connection refused/reset, per-attempt timeout.
		return true, true
	}
	switch {
	case se.Status == http.StatusTooManyRequests:
		return true, false
	case se.Status == http.StatusServiceUnavailable:
		return true, true
	case se.Status == http.StatusGatewayTimeout:
		return false, false // the deadline travels with the request; a retry expires identically
	case se.Status >= 500:
		return true, true
	default:
		return false, false
	}
}

// do runs one API call through the retry loop: breaker gate, per-attempt
// timeout, classification, jittered backoff honoring Retry-After. On
// success the response body is decoded into out (when non-nil). Every
// attempt carries the call's X-Request-ID and a traceparent naming this
// attempt's span; with a recorder installed, attempts and breaker
// transitions are recorded as spans and the call's trace is finished (and
// tail-sampled) on return.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reqID := requestIDFrom(ctx)
	if reqID == "" {
		reqID = newRequestID()
	}
	ct := c.startCallTrace(ctx, "client.call")
	defer func() { ct.at.Finish(err) }()

	var lastErr error
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt - 1)
			var se *StatusError
			if errors.As(lastErr, &se) && se.RetryAfter > wait {
				wait = se.RetryAfter
			}
			if err := c.sleep(ctx, wait); err != nil {
				return fmt.Errorf("%w (after %d attempts, last: %w)", err, attempt, lastErr)
			}
		}
		prevState := c.br.current()
		allowed := c.br.allow()
		c.breakerSpan(ct, prevState)
		if !allowed {
			if lastErr != nil {
				return fmt.Errorf("%w (last: %w)", ErrCircuitOpen, lastErr)
			}
			return ErrCircuitOpen
		}
		attemptID := obs.NewSpanID()
		start := time.Now()
		err := c.attempt(ctx, method, path, body, out, attemptHeaders{
			requestID:   reqID,
			traceparent: obs.TraceContext{TraceID: ct.tc.TraceID, SpanID: attemptID}.Traceparent(),
		})
		ct.attemptSpan(attemptID, attempt, statusOf(err), start)
		prevState = c.br.current()
		if err == nil {
			c.br.onSuccess()
			c.breakerSpan(ct, prevState)
			return nil
		}
		retryable, breakerFail := classify(err)
		if breakerFail {
			c.br.onFailure()
		} else {
			c.br.onSuccess()
		}
		c.breakerSpan(ct, prevState)
		if !retryable {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			return fmt.Errorf("%w (after %d attempts, last: %w)", ctx.Err(), attempt+1, lastErr)
		}
	}
	return fmt.Errorf("client: %d attempts failed: %w", c.cfg.maxAttempts, lastErr)
}

// attemptHeaders is the correlation metadata one attempt sends.
type attemptHeaders struct {
	requestID   string
	traceparent string
}

// attempt performs one HTTP round trip under the per-attempt timeout.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any, hdr attemptHeaders) error {
	actx := ctx
	if c.cfg.attemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.attemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", hdr.requestID)
	req.Header.Set("traceparent", hdr.traceparent)
	resp, err := c.cfg.httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	// The gateway echoes the request ID it served under; fall back to the
	// one sent if the peer is an older or non-echoing server.
	echoed := resp.Header.Get("X-Request-ID")
	if echoed == "" {
		echoed = hdr.requestID
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		se := &StatusError{
			Status:     resp.StatusCode,
			Message:    errorMessage(raw),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now()),
			RequestID:  echoed,
		}
		return se
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	if s, ok := out.(requestIDSetter); ok {
		s.setRequestID(echoed)
	}
	return nil
}

// errorMessage extracts the gateway's error body, falling back to the raw
// bytes.
func errorMessage(raw []byte) string {
	var e wire.Error
	if json.Unmarshal(raw, &e) == nil && e.Message != "" {
		return e.Message
	}
	s := string(bytes.TrimSpace(raw))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// parseRetryAfter handles both Retry-After forms: delay-seconds and an HTTP
// date. Unparseable or absent values yield 0.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// Stats is the per-request telemetry block every workload response carries.
type Stats = wire.Stats

// SolveResponse is a full solve: centers (raw — decode with DecodeCenters
// against the instance's kind), the assignment, both E-costs and the
// certain-solver telemetry.
type SolveResponse struct {
	ResponseMeta
	wire.SolveResponse[json.RawMessage]
}

// AssignResponse is an assignment of every point to one of the given centers.
type AssignResponse struct {
	ResponseMeta
	wire.AssignResponse
}

// EcostResponse is one expected-cost evaluation.
type EcostResponse struct {
	ResponseMeta
	wire.EcostResponse
}

// SweepResponse is the full swap-neighborhood E-cost matrix; Snapped is raw
// like a solve's centers.
type SweepResponse struct {
	ResponseMeta
	wire.SweepResponse[json.RawMessage]
}

// UnassignedResponse is an unassigned-semantics local-search solve.
type UnassignedResponse struct {
	ResponseMeta
	wire.UnassignedResponse[json.RawMessage]
}

// DecodeCenters decodes a raw centers column against the instance kind's
// point type: []ukc.Vec for euclidean instances, []int for finite ones.
func DecodeCenters[P any](raw json.RawMessage) ([]P, error) {
	out, err := wire.DecodeCenters[P](raw)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return out, nil
}

// post sends one workload request to POST /v1/<workload> and decodes the
// response. centers, unless nil, is marshaled into the request as the
// instance kind's point JSON.
func post[R any](c *Client, ctx context.Context, workload string, req wire.Request, centers any) (*R, error) {
	if centers != nil {
		raw, err := json.Marshal(centers)
		if err != nil {
			return nil, fmt.Errorf("client: marshaling centers: %w", err)
		}
		req.Centers = raw
	}
	body, _ := json.Marshal(req) // cannot fail: Centers, the one raw field, was just marshaled
	out := new(R)
	if err := c.do(ctx, http.MethodPost, "/v1/"+workload, body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Solve runs a full solve of instance with k centers. deadline (0 = server
// default) travels with the request and bounds queue wait plus execution on
// the server; a positive deadline travels in whole milliseconds, rounded up.
func (c *Client) Solve(ctx context.Context, instance string, k int, deadline time.Duration) (*SolveResponse, error) {
	return post[SolveResponse](c, ctx, "solve", wire.Request{Instance: instance, K: k, DeadlineMS: wire.DeadlineMS(deadline)}, nil)
}

// Assign assigns every point of instance to one of centers (marshaled as the
// instance kind's point JSON: [][2]float64-style rows for euclidean, vertex
// indices for finite).
func (c *Client) Assign(ctx context.Context, instance string, centers any, deadline time.Duration) (*AssignResponse, error) {
	return post[AssignResponse](c, ctx, "assign", wire.Request{Instance: instance, DeadlineMS: wire.DeadlineMS(deadline)}, centers)
}

// Ecost evaluates the expected cost of centers over instance; assign may be
// nil for unassigned semantics.
func (c *Client) Ecost(ctx context.Context, instance string, centers any, assign []int, deadline time.Duration) (*EcostResponse, error) {
	return post[EcostResponse](c, ctx, "ecost", wire.Request{Instance: instance, Assign: assign, DeadlineMS: wire.DeadlineMS(deadline)}, centers)
}

// Sweep computes the swap-neighborhood E-cost matrix around centers.
func (c *Client) Sweep(ctx context.Context, instance string, centers any, deadline time.Duration) (*SweepResponse, error) {
	return post[SweepResponse](c, ctx, "sweep", wire.Request{Instance: instance, DeadlineMS: wire.DeadlineMS(deadline)}, centers)
}

// Unassigned runs the unassigned-semantics local-search solve.
func (c *Client) Unassigned(ctx context.Context, instance string, k int, deadline time.Duration) (*UnassignedResponse, error) {
	return post[UnassignedResponse](c, ctx, "unassigned", wire.Request{Instance: instance, K: k, DeadlineMS: wire.DeadlineMS(deadline)}, nil)
}

// Instance is one registry listing row.
type Instance = wire.Instance

// List returns the registered instances of both kinds.
func (c *Client) List(ctx context.Context) ([]Instance, error) {
	var out wire.List
	if err := c.do(ctx, http.MethodGet, "/v1/instances", nil, &out); err != nil {
		return nil, err
	}
	return out.Instances, nil
}

// Register uploads a cmd/datagen JSON instance document (internal/dataio
// schema; its "kind" field routes it) under name. A duplicate name fails
// with a 409 StatusError and is not retried.
func (c *Client) Register(ctx context.Context, name string, document []byte) error {
	return c.do(ctx, http.MethodPut, "/v1/instances/"+name, document, nil)
}

// Unregister removes the named instance from the registry.
func (c *Client) Unregister(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/instances/"+name, nil, nil)
}

// Freeze writes the named instance's zero-copy snapshot into the server's
// snapshot directory, returning the path and byte size.
func (c *Client) Freeze(ctx context.Context, name string) (path string, bytes int64, err error) {
	var out wire.Frozen
	if err := c.do(ctx, http.MethodPost, "/v1/instances/"+name+"/freeze", nil, &out); err != nil {
		return "", 0, err
	}
	return out.Path, out.Bytes, nil
}
