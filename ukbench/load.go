package main

// load.go is the closed-loop load generator: callers share one seeded
// request sequence, each sending its next request only after the previous
// one returned, every response checked against the oracle. With tracing on,
// every call is recorded as a span whose serve.queue and serve.exec children
// come from the response's stats.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// sample is one request's outcome as the caller saw it.
type sample struct {
	id       int
	start    time.Time
	dur      time.Duration
	err      string // "" = 2xx and matched the oracle
	queueMS  float64
	execMS   float64
	cacheHit bool
	cost     float64
	hasCost  bool
}

// span is one recorded interval of the traced run: client calls, their
// serve.queue/serve.exec children, and the in-process replay's phases.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"` // 0 = root
	Name      string  `json:"name"`
	RequestID string  `json:"request_id,omitempty"`
	StartUS   float64 `json:"start_us"` // offset from the run's epoch; children of a client call carry only durations
	DurUS     float64 `json:"dur_us"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	calls atomic.Int64 // numbers the traced client calls' request IDs
}

func (l *spanLog) add(parent int, name, reqID string, start time.Time, dur time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, RequestID: reqID,
		StartUS: float64(start.Sub(l.epoch).Nanoseconds()) / 1e3, DurUS: float64(dur.Nanoseconds()) / 1e3})
	return id
}

// end sets span id's duration to the time since start.
func (l *spanLog) end(id int, start time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].DurUS = float64(time.Since(start).Nanoseconds()) / 1e3
}

// newHTTP returns the one HTTP client every call shares: a transport that
// keeps one idle connection per caller.
func newHTTP(callers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        callers,
		MaxIdleConnsPerHost: callers,
		DisableCompression:  true,
	}}
}

// newClient wraps hc in the public client with retries off, so a 429 or 5xx
// counts against ok_frac instead of being retried away.
func newClient(base string, hc *http.Client) (*client.Client, error) {
	return client.New(base, client.WithHTTPClient(hc), client.WithMaxAttempts(1), client.WithAttemptTimeout(2*time.Minute))
}

// call sends r through cl and returns the comparable answer and the stats.
func call(ctx context.Context, cl *client.Client, r *request) (answer, client.Stats, error) {
	name := r.inst.name
	switch r.op {
	case opSolve:
		resp, err := cl.Solve(ctx, name, r.k, 0)
		if err != nil {
			return answer{}, client.Stats{}, err
		}
		return answer{centers: resp.Centers, assign: resp.Assign, ecost: resp.Ecost, ecostUn: resp.EcostUnassigned}, resp.Stats, nil
	case opAssign:
		resp, err := cl.Assign(ctx, name, r.centers, 0)
		if err != nil {
			return answer{}, client.Stats{}, err
		}
		return answer{assign: resp.Assign}, resp.Stats, nil
	case opEcost, opEcostUnassigned:
		resp, err := cl.Ecost(ctx, name, r.centers, r.assign, 0)
		if err != nil {
			return answer{}, client.Stats{}, err
		}
		return answer{ecost: resp.Ecost}, resp.Stats, nil
	case opUnassigned:
		resp, err := cl.Unassigned(ctx, name, r.k, 0)
		if err != nil {
			return answer{}, client.Stats{}, err
		}
		return answer{centers: resp.Centers, ecost: resp.Ecost}, resp.Stats, nil
	case opSweep:
		resp, err := cl.Sweep(ctx, name, r.centers, 0)
		if err != nil {
			return answer{}, client.Stats{}, err
		}
		return answer{sweep: resp.Sweep, snapped: resp.Snapped}, resp.Stats, nil
	}
	return answer{}, client.Stats{}, fmt.Errorf("unknown op %v", r.op)
}

// drive runs callers closed loops over seq. With limit > 0 the callers stop
// after limit requests in total; otherwise they stop sending at stopAt.
// spans, when non-nil, records every call.
func drive(ctx context.Context, cl *client.Client, w *workload, seq []int, limit int, stopAt time.Time, spans *spanLog) []sample {
	var next atomic.Int64
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				start := time.Now()
				if limit <= 0 && !start.Before(stopAt) {
					return
				}
				r := w.reqs[seq[i%len(seq)]]
				cctx, reqID := ctx, ""
				if spans != nil {
					reqID = fmt.Sprintf("ukbench-%d", spans.calls.Add(1))
					cctx = client.WithRequestID(ctx, reqID)
				}
				got, st, err := call(cctx, cl, r)
				d := time.Since(start)
				s := sample{id: r.id, start: start, dur: d, queueMS: st.QueueMS, execMS: st.ExecMS, cacheHit: st.CacheHit}
				switch {
				case err != nil:
					s.err = err.Error()
				default:
					if msg := r.match(got); msg != "" {
						s.err = fmt.Sprintf("%s %s: response differs from the in-process solver: %s", r.op, r.inst.name, msg)
					}
					s.cost, s.hasCost = got.cost(r.op)
				}
				if spans != nil {
					root := spans.add(0, "client."+r.op.String(), reqID, start, d)
					spans.add(root, "serve.queue", reqID, start, time.Duration(st.QueueMS*1e6))
					spans.add(root, "serve.exec", reqID, start, time.Duration(st.ExecMS*1e6))
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].start.Before(out[b].start) })
	return out
}

// failures returns the failed samples' count and the first error.
func failures(samples []sample) (int, string) {
	n, first := 0, ""
	for _, s := range samples {
		if s.err != "" {
			if n == 0 {
				first = s.err
			}
			n++
		}
	}
	return n, first
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latenciesMS returns the successful samples' client latencies, sorted.
func latenciesMS(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == "" {
			out = append(out, float64(s.dur.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
