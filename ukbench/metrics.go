package main

// metrics.go turns measured phases into the printed metrics: the
// end-to-end set from the untraced phases, the per-layer set from the traced
// phases, their /metrics deltas and the in-process replay.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/client"
)

// phase is one measured closed-loop phase on one server with its
// server-side deltas.
type phase struct {
	samples []sample
	wall    time.Duration // first request sent to last response
	cpuMS   float64       // ukserver user+system CPU over the phase

	// /metrics deltas over the phase, excluding the scrapes' own requests.
	completed float64 // serve-layer completed requests
	handlerMS float64 // gateway handler time of the workload requests
	evictions float64
	buildMS   float64 // memoized cache builds
	scanned   float64 // candidate-index scan accounting
	pruned    float64
	gcCycles  float64
}

// deltas are the /metrics series a phase reports, each with the label
// filter that selects it; a missing series fails the run.
var deltas = []struct {
	name  string
	match map[string]string
	into  func(p *phase) *float64
}{
	{"ukc_serve_requests_total", map[string]string{"outcome": "completed"}, func(p *phase) *float64 { return &p.completed }},
	{"ukc_serve_cache_events_total", map[string]string{"event": "eviction"}, func(p *phase) *float64 { return &p.evictions }},
	{"ukc_serve_instance_cache_build_seconds_sum", nil, func(p *phase) *float64 { return &p.buildMS }},
	{"ukc_serve_prune_total", map[string]string{"event": "scanned"}, func(p *phase) *float64 { return &p.scanned }},
	{"ukc_serve_prune_total", map[string]string{"event": "pruned"}, func(p *phase) *float64 { return &p.pruned }},
	{"go_gc_cycles_total", nil, func(p *phase) *float64 { return &p.gcCycles }},
}

// handlerTotals reads the gateway request-duration histogram's sum
// (seconds) and count.
func handlerTotals(samples []promSample) (sum, count float64, err error) {
	if sum, err = sumSeries(samples, "ukc_http_request_duration_seconds_sum", nil); err != nil {
		return 0, 0, err
	}
	count, err = sumSeries(samples, "ukc_http_request_duration_seconds_count", nil)
	return sum, count, err
}

// measure runs the closed loop over w.seq for dur, bracketed by /metrics
// scrapes and /proc CPU readings.
func measure(ctx context.Context, srv *server, cl *client.Client, hc *http.Client, w *workload, dur time.Duration, spans *spanLog) (*phase, error) {
	before, err := scrape(hc, srv.base)
	if err != nil {
		return nil, err
	}
	t0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p := &phase{samples: drive(ctx, cl, w, w.seq, 0, start.Add(dur), spans)}
	p.wall = time.Since(start)
	t1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.cpuMS = float64(t1-t0) * 1000 / userHZ
	samples := p.samples

	// The gateway records a request's duration after writing its response,
	// so the "before" scrape lands inside the phase and the phase's last
	// requests may land late: scrape until every request is counted.
	sum0, count0, err := handlerTotals(before)
	if err != nil {
		return nil, err
	}
	var (
		after        []promSample
		sum1, count1 float64
	)
	for try := 0; count1-count0 < float64(len(samples)+1); try++ {
		if try == 1000 {
			return nil, fmt.Errorf("gateway histogram counted %v requests in the phase, want at least %d", count1-count0, len(samples)+1)
		}
		if try > 0 {
			time.Sleep(time.Millisecond)
		}
		if after, err = scrape(hc, srv.base); err != nil {
			return nil, err
		}
		if sum1, count1, err = handlerTotals(after); err != nil {
			return nil, err
		}
	}
	// One more scrape measures a scrape's own handler time, which stands
	// in for the scrapes counted inside the phase.
	var sum2, count2 float64
	for try := 0; count2 <= count1; try++ {
		if try == 1000 {
			return nil, fmt.Errorf("gateway histogram never counted the closing scrape")
		}
		if try > 0 {
			time.Sleep(time.Millisecond)
		}
		again, err := scrape(hc, srv.base)
		if err != nil {
			return nil, err
		}
		if sum2, count2, err = handlerTotals(again); err != nil {
			return nil, err
		}
	}
	scrapeSec := (sum2 - sum1) / (count2 - count1)
	extra := count1 - count0 - float64(len(samples))
	p.handlerMS = (sum1 - sum0 - extra*scrapeSec) * 1000

	for _, d := range deltas {
		a, err := sumSeries(before, d.name, d.match)
		if err != nil {
			return nil, err
		}
		b, err := sumSeries(after, d.name, d.match)
		if err != nil {
			return nil, err
		}
		*d.into(p) = b - a
	}
	p.buildMS *= 1000
	if n, _ := failures(samples); n == 0 && p.completed != float64(len(samples)) {
		return nil, fmt.Errorf("ukserver completed %v requests in the phase, the callers saw %d", p.completed, len(samples))
	}
	return p, nil
}

// pool merges phases measured on different servers.
func pool(ps []*phase) *phase {
	out := &phase{}
	for _, p := range ps {
		out.samples = append(out.samples, p.samples...)
		out.wall += p.wall
		out.cpuMS += p.cpuMS
		out.completed += p.completed
		out.handlerMS += p.handlerMS
		out.evictions += p.evictions
		out.buildMS += p.buildMS
		out.scanned += p.scanned
		out.pruned += p.pruned
		out.gcCycles += p.gcCycles
	}
	return out
}

// endToEnd computes the metrics a user of ukserver sees: throughput,
// median latency and CPU per request as medians over the servers, the tail
// over every sample.
func endToEnd(ps []*phase, w *workload, setups, rssMiB []float64, costs map[int]float64) report {
	r := newReport()
	var rps, p50, cpu []float64
	for _, p := range ps {
		lat := latenciesMS(p.samples)
		rps = append(rps, float64(len(lat))/p.wall.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		cpu = append(cpu, p.cpuMS/float64(len(lat)))
	}
	all := pool(ps)
	lat := latenciesMS(all.samples)
	tail := quantile(lat, w.tail)
	beyond := 0
	for _, x := range lat {
		if x > tail {
			beyond++
		}
	}
	ids := make([]int, 0, len(costs))
	for id := range costs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cs := make([]float64, len(ids))
	for i, id := range ids {
		cs[i] = costs[id]
	}
	r.set("throughput_rps", median(rps), "1/s")
	r.set("latency_p50_ms", median(p50), "ms")
	r.set("latency_tail_ms", tail, "ms")
	r.set("ok_frac", float64(len(lat))/float64(len(all.samples)), "frac")
	r.set("cpu_ms_per_req", median(cpu), "ms")
	r.set("server_rss_peak_mb", median(rssMiB), "MiB")
	r.set("setup_s", median(setups), "s")
	r.set("ecost_mean", mean(cs), "dist")
	r.notes = append(r.notes,
		fmt.Sprintf("throughput_rps, latency_p50_ms and cpu_ms_per_req are medians over %d servers: %.4f, %.4f, %.4f", len(ps), rps, p50, cpu),
		fmt.Sprintf("latency_tail_ms is p%g over %d samples, %d beyond it", w.tail*100, len(lat), beyond),
		fmt.Sprintf("setup_s is the median of %d boots: %.4f", len(setups), setups),
		fmt.Sprintf("server_rss_peak_mb is the median VmHWM of the %d servers, each read before it stopped: %.2f", len(rssMiB), rssMiB),
		fmt.Sprintf("ecost_mean is over %d distinct requests carrying an expected cost", len(cs)))
	return r
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(p *phase, rep *replayResult, w *workload) report {
	r := newReport()
	var lat, queue, exec, stack []float64
	execByID := map[int][]float64{}
	hits := 0
	for _, s := range p.samples {
		if s.err != "" {
			continue
		}
		lat = append(lat, float64(s.dur.Nanoseconds())/1e6)
		queue = append(queue, s.queueMS)
		exec = append(exec, s.execMS)
		stack = append(stack, s.queueMS+s.execMS)
		execByID[s.id] = append(execByID[s.id], s.execMS)
		if s.cacheHit {
			hits++
		}
	}
	sort.Float64s(queue)
	sort.Float64s(exec)
	n := float64(len(lat))
	latMean := mean(lat)
	handlerMean := p.handlerMS / float64(len(p.samples))
	r.set("client.ms_mean", latMean-handlerMean, "ms")
	r.set("gateway.ms_mean", handlerMean-mean(stack), "ms")
	r.set("serve.queue_ms_p50", quantile(queue, 0.5), "ms")
	r.set("serve.exec_ms_p50", quantile(exec, 0.5), "ms")
	r.set("serve.cache_hit_frac", float64(hits)/n, "frac")
	r.set("serve.evictions_per_req", p.evictions/p.completed, "1/req")
	r.set("serve.cache_build_ms_per_req", p.buildMS/p.completed, "ms/req")
	pruneRate := 0.0
	if p.scanned > 0 {
		pruneRate = p.pruned / p.scanned
	}
	r.set("core.prune_rate", pruneRate, "frac")
	r.set("runtime.gc_cycles_per_req", p.gcCycles/p.completed, "1/req")
	for _, layer := range replayLayers {
		r.set(layer+"_ms", rep.layerMS[layer], "ms")
	}

	// unattributed: served execution time the replayed layers do not
	// cover, compared request by request. The same difference taken
	// between per-request medians shows how much of it is the exec tail.
	var execMeans, execMedians, paths []float64
	for _, q := range w.reqs {
		if xs := execByID[q.id]; len(xs) > 0 {
			execMeans = append(execMeans, mean(xs))
			execMedians = append(execMedians, median(xs))
			paths = append(paths, rep.pathMS[q.id])
		}
	}
	execMean := mean(execMeans)
	unattributed := execMean - mean(paths)
	r.set("unattributed_ms", unattributed, "ms")
	r.notes = append(r.notes,
		fmt.Sprintf("unattributed_ms is %.1f%% of the mean serve.exec_ms %.4f over %d distinct requests (%.1f%% between per-request medians)",
			100*unattributed/execMean, execMean, len(execMeans), 100*(1-mean(paths)/mean(execMedians))),
		fmt.Sprintf("client+gateway is %.1f%% of the mean latency %.4f ms", 100*(latMean-mean(stack))/latMean, latMean))
	return r
}
