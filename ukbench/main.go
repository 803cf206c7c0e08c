// Command ukbench is the repository's end-to-end benchmark: it launches the
// real cmd/ukserver binary on loopback, drives it in a closed loop through
// the public client package, checks every answer against the in-process
// solver, and prints every metric by name with its unit.
//
//	bash ukbench/run.sh --workload solve-mix --seed 1 --seconds 15 --trace 0
//	bash ukbench/run.sh --smoke
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - solve-mix: solve, assign, assigned and unassigned ecost on warm
//     Euclidean and finite instances — the gateway and surrogate pipeline;
//   - unassigned-ls: unassigned local search — the swap scan, candidate
//     index and emax sweep;
//   - evict-churn: swap sweeps under a one-byte cache budget over
//     snapshot-started instances — the evaluator build after every eviction.
//
// Each run boots ukserver several times (setup_s is the median boot →
// registration or warm start → warm-up time), keeps the last server, and
// measures a closed loop of two callers for --seconds. With --trace 0 it
// prints the end-to-end metrics. With --trace 1 it measures the same loop
// untraced and then traced, half the time each, prints the difference as
// the tracing overhead,
// replays the distinct requests in-process through each layer's public
// functions, and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A response that differs from the in-process solver makes the run exit 1.
//
// Every run writes its result, the server log and (traced) its spans under
// --out/runs/<workload>-seed<seed>-trace<0|1>/.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// callers is the closed loop's concurrency on every workload: with ukserver
// at one worker per kind, one request executes while the next one queues.
const callers = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	out      string
	server   string // the ukserver binary
	smoke    bool   // tiny sizes
	setups   int    // server boots per run; setup_s is their median
	reps     int    // in-process replay repetitions
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ukbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cfg   config
		trace int
		smoke bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: instances, requests and their order")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for builds, snapshots, logs and results")
	flag.BoolVar(&smoke, "smoke", false, "run every workload, untraced and traced, at tiny sizes and check the output")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	// The load generator never uses more processors than the machine has.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		return err
	}
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		return err
	}
	if cfg.server, err = buildServer(ctx, cfg.root, cfg.out); err != nil {
		return err
	}
	if smoke {
		return runSmoke(ctx, cfg, os.Stdout)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.setups, cfg.reps = 3, 3
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed or differed from the in-process solver", res.Failed, res.Attempted)
	}
	return nil
}

// buildServer builds cmd/ukserver once, before anything is timed.
func buildServer(ctx context.Context, root, out string) (string, error) {
	bin := filepath.Join(out, "bin", "ukserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ukserver")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/ukserver: %w", err)
	}
	return bin, nil
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a metric set with the notes printed beside it.
type report struct {
	Metrics map[string]metric `json:"metrics"`
	notes   []string
}

func newReport() report { return report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// result is one run's outcome; the last stdout line is its JSON form
// without the Info block.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	report
	Info map[string]any `json:"-"`
}

// print writes the human-readable lines, then the result line.
func (r *result) print(w io.Writer) error {
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "info %s %v\n", k, r.Info[k])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "metric %-30s %14.6f %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload performs one run: boot and measure cfg.setups servers in
// turn, (traced) replay in-process, report.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	dir := filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := buildWorkload(ctx, cfg.workload, cfg.seed, cfg.smoke, dir)
	if err != nil {
		return nil, err
	}
	res := &result{Info: stamp(cfg)}
	res.Info["workload"] = fmt.Sprintf("%s callers=%d ukserver %s distinct_requests=%d", w.name, callers,
		strings.Join(w.flags, " "), len(w.reqs))

	// The measured time is split evenly over the servers, so a server
	// process that lands unluckily on the machine moves one segment of
	// several; a traced run splits each segment again between an untraced
	// and a traced half.
	seg := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.setups))
	var spans *spanLog
	if cfg.trace {
		seg /= 2
		spans = &spanLog{epoch: time.Now()}
	}
	hc := newHTTP(callers)
	defer hc.CloseIdleConnections()
	var (
		costs         = map[int]float64{} // request id -> expected cost served in the warm-up
		setups, rss   []float64
		plain, traced []*phase
	)
	for i := 0; i < cfg.setups; i++ {
		err := func() error {
			hc.CloseIdleConnections() // connections to the previous server are dead
			srv, d, err := setUp(ctx, w, hc, filepath.Join(dir, fmt.Sprintf("ukserver-%d.log", i)), cfg.server, costs)
			if err != nil {
				return err
			}
			defer srv.stop()
			setups = append(setups, d.Seconds())
			cl, err := newClient(srv.base, hc)
			if err != nil {
				return err
			}
			p, err := measure(ctx, srv, cl, hc, w, seg, nil)
			if err != nil {
				return err
			}
			plain = append(plain, p)
			if cfg.trace {
				if p, err = measure(ctx, srv, cl, hc, w, seg, spans); err != nil {
					return err
				}
				traced = append(traced, p)
			}
			v, err := srv.peakRSSMiB()
			rss = append(rss, v)
			return err
		}()
		if err != nil {
			return nil, err
		}
	}
	e2e := endToEnd(plain, w, setups, rss, costs)
	res.report = e2e
	all := pool(append(append([]*phase(nil), plain...), traced...))
	res.Attempted = len(all.samples)
	failed, firstErr := failures(all.samples)
	res.Failed, res.Correct = failed, failed == 0
	if failed > 0 {
		res.notes = append(res.notes, "first failure: "+firstErr)
	}
	if !cfg.trace {
		return res, writeResult(dir, res, nil)
	}

	rep, err := replay(ctx, w, cfg.reps, spans)
	if err != nil {
		return nil, err
	}
	tr := endToEnd(traced, w, setups, rss, costs)
	layers := perLayer(pool(traced), rep, w)
	layers.notes = append(res.notes, layers.notes...)
	for _, name := range []string{"throughput_rps", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_req"} {
		t, u := tr.Metrics[name], e2e.Metrics[name]
		layers.notes = append(layers.notes, fmt.Sprintf("tracing overhead %-16s traced %.4f - untraced %.4f = %+.4f %s",
			name, t.Value, u.Value, t.Value-u.Value, u.Unit))
	}
	layers.set("trace.overhead_p50_ms", tr.Metrics["latency_p50_ms"].Value-e2e.Metrics["latency_p50_ms"].Value, "ms")
	res.report = layers
	return res, writeResult(dir, res, spans)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setUp boots ukserver, registers the workload's instances (snapshot
// workloads warm-start instead) and runs the warm-up, returning the server
// and the time from launch to warm-up done.
func setUp(ctx context.Context, w *workload, hc *http.Client, logPath, bin string, costs map[int]float64) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := launch(bin, w.flags, logPath)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*server, time.Duration, error) {
		srv.stop()
		return nil, 0, err
	}
	if err := srv.waitReady(30 * time.Second); err != nil {
		return fail(err)
	}
	cl, err := newClient(srv.base, hc)
	if err != nil {
		return fail(err)
	}
	for _, in := range w.insts {
		if in.doc == nil {
			continue
		}
		if err := cl.Register(ctx, in.name, in.doc); err != nil {
			return fail(fmt.Errorf("registering %s: %w", in.name, err))
		}
	}
	samples := drive(ctx, cl, w, w.warmup, len(w.warmup), time.Time{}, nil)
	if n, first := failures(samples); n > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d requests failed; first: %s", n, len(samples), first))
	}
	d := time.Since(start)
	for _, s := range samples {
		if s.hasCost {
			costs[s.id] = s.cost
		}
	}
	return srv, d, nil
}

// stamp records the run's seed and environment.
func stamp(cfg config) map[string]any {
	return map[string]any{
		"seed":       cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(cfg.root),
		"cpu":        cpuModel(),
		"seconds":    cfg.seconds,
		"trace":      b2i(cfg.trace),
	}
}

// commit names the measured source: the git HEAD when the root is a
// repository, otherwise a digest of its Go sources.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeResult stores the run's result (with its stamp) and spans.
func writeResult(dir string, res *result, spans *spanLog) error {
	full := map[string]any{"result": res, "info": res.Info, "notes": res.notes}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), b, 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
