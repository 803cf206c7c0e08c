package main

// replay.go is the traced run's in-process half: it loads the workload's
// instances the way ukserver does and replays the distinct requests one call
// at a time through the public functions of each layer — dataio, core,
// kcenter, store — timing every call from outside. Each replayed answer must
// equal the oracle's, so the replay provably walks the path ukserver served.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/geom"
	"repro/internal/kcenter"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
	"repro/store"
)

// Layer names of the replay; each becomes the per-layer metric name+"_ms".
const (
	layerDecode      = "dataio.decode"
	layerCompile     = "core.compile"
	layerOpen        = "store.open"
	layerSurrogates  = "core.surrogates"
	layerEvaluator   = "core.evaluator_build"
	layerCandIndex   = "core.candindex_build"
	layerLookup      = "core.surrogates_lookup" // warm memo lookup inside a solve; counted, not reported
	layerCertain     = "kcenter.certain"
	layerAssign      = "core.assign"
	layerEcost       = "core.ecost"
	layerLS          = "core.ls"
	layerSweep       = "core.sweep"
	replaySetupSpans = "replay.setup"
)

// replayLayers are the reported layers, in output order.
var replayLayers = []string{layerDecode, layerCompile, layerOpen, layerSurrogates, layerCertain,
	layerAssign, layerEcost, layerEvaluator, layerCandIndex, layerLS, layerSweep}

// replayResult is the replay's per-layer time: request-path layers as the
// mean over distinct requests of each request's median, set-up layers as
// the mean over instances of each build's median (ms).
type replayResult struct {
	layerMS map[string]float64
	pathMS  map[int]float64 // request id -> summed request-path phases (ms)
}

// compiledInst is one replayed instance in its compiled form.
type compiledInst struct {
	eu  *core.Compiled[geom.Vec]
	fin *core.Compiled[int]
}

// timer records phase durations into per-key sample lists and spans.
type timer struct {
	spans   *spanLog
	parent  int
	reqID   string
	samples map[string][]float64
}

func (t *timer) time(layer string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.samples[layer] = append(t.samples[layer], float64(d.Nanoseconds())/1e6)
	t.spans.add(t.parent, layer, t.reqID, start, d)
	return err
}

// replay runs the set-up layers reps times per instance, then the
// workload's request sequence once, in order, so each request meets the
// caches the same neighbours leave behind as on the server.
func replay(ctx context.Context, w *workload, reps int, spans *spanLog) (*replayResult, error) {
	res := &replayResult{layerMS: map[string]float64{}, pathMS: map[int]float64{}}
	setup := map[string][]float64{} // layer -> per-instance medians
	insts := map[*instance]compiledInst{}
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()

	for _, in := range w.insts {
		t := &timer{spans: spans, samples: map[string][]float64{}}
		var ci compiledInst
		for rep := 0; rep < reps; rep++ {
			setupStart := time.Now()
			t.parent = spans.add(0, replaySetupSpans, in.name, setupStart, 0)
			var err error
			if in.snap != "" {
				var snap *store.Snapshot
				err = t.time(layerOpen, func() error {
					var err error
					if snap, err = store.Open(ctx, in.snap); err != nil {
						return err
					}
					ci.eu, err = snap.Euclidean()
					return err
				})
				if snap != nil {
					closers = append(closers, snap)
				}
			} else {
				ci, err = decodeCompile(ctx, t, in)
			}
			if err != nil {
				return nil, fmt.Errorf("replaying set-up of %s: %w", in.name, err)
			}
			if ci.fin != nil {
				err = warmBuilds(ctx, t, ci.fin, w)
			} else {
				err = warmBuilds(ctx, t, ci.eu, w)
			}
			if err != nil {
				return nil, fmt.Errorf("replaying cache builds of %s: %w", in.name, err)
			}
			spans.end(t.parent, setupStart)
		}
		for layer, xs := range t.samples {
			setup[layer] = append(setup[layer], median(xs))
		}
		insts[in] = ci
	}

	perReq := map[string]map[int][]float64{} // layer -> id -> samples
	for i, id := range w.seq {
		r := w.reqs[id]
		reqID := fmt.Sprintf("replay-%d", i)
		t := &timer{spans: spans, reqID: reqID, samples: map[string][]float64{}}
		start := time.Now()
		t.parent = spans.add(0, "replay."+r.op.String(), reqID, start, 0)
		ci := insts[r.inst]
		var (
			got answer
			err error
		)
		if ci.fin != nil {
			got, err = replayRequest(ctx, t, ci.fin, r)
		} else {
			got, err = replayRequest(ctx, t, ci.eu, r)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying %s on %s: %w", r.op, r.inst.name, err)
		}
		if msg := r.match(got); msg != "" {
			return nil, fmt.Errorf("replayed %s on %s differs from the oracle: %s", r.op, r.inst.name, msg)
		}
		spans.end(t.parent, start)
		for layer, xs := range t.samples {
			if perReq[layer] == nil {
				perReq[layer] = map[int][]float64{}
			}
			perReq[layer][r.id] = append(perReq[layer][r.id], xs...)
		}
	}

	for layer, byID := range perReq {
		total := 0.0
		for id, xs := range byID {
			m := median(xs)
			total += m
			res.pathMS[id] += m
		}
		res.layerMS[layer] = total / float64(len(w.reqs))
	}
	for layer, xs := range setup {
		if _, onPath := res.layerMS[layer]; !onPath {
			res.layerMS[layer] = mean(xs)
		}
	}
	for _, layer := range replayLayers {
		if _, ok := res.layerMS[layer]; !ok {
			res.layerMS[layer] = 0 // the workload never enters this layer
		}
	}
	return res, nil
}

// decodeCompile loads a registration document the way ukserver does:
// decode, then compile (finite instances take every vertex as a candidate).
func decodeCompile(ctx context.Context, t *timer, in *instance) (compiledInst, error) {
	var ci compiledInst
	if in.finite {
		var (
			space *metricspace.Finite
			pts   []uncertain.Point[int]
		)
		if err := t.time(layerDecode, func() error {
			var err error
			space, pts, err = dataio.ReadFinite(bytes.NewReader(in.doc))
			return err
		}); err != nil {
			return ci, err
		}
		err := t.time(layerCompile, func() error {
			var err error
			ci.fin, err = core.Compile[int](ctx, space, pts, space.Points())
			return err
		})
		return ci, err
	}
	var pts []uncertain.Point[geom.Vec]
	if err := t.time(layerDecode, func() error {
		var err error
		pts, err = dataio.ReadEuclidean(bytes.NewReader(in.doc))
		return err
	}); err != nil {
		return ci, err
	}
	err := t.time(layerCompile, func() error {
		var err error
		ci.eu, err = core.Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
		return err
	})
	return ci, err
}

// warmBuilds times the cache builds the workload's warm-up pays once per
// instance, each from dropped caches, and leaves the caches warm.
func warmBuilds[P any](ctx context.Context, t *timer, c *core.Compiled[P], w *workload) error {
	switch w.name {
	case "solve-mix":
		c.DropCaches()
		return t.time(layerSurrogates, func() error {
			_, err := c.Surrogates(ctx, surrogateOf(c), c.PipelineCandidates(), 1)
			return err
		})
	case "unassigned-ls":
		c.DropCaches()
		if err := t.time(layerSurrogates, func() error {
			_, err := c.Surrogates(ctx, core.SurrogateOneCenter, c.CandidatesOrLocations(), 1)
			return err
		}); err != nil {
			return err
		}
		if err := t.time(layerEvaluator, func() error {
			_, err := c.Evaluator(ctx, 1)
			return err
		}); err != nil {
			return err
		}
		return t.time(layerCandIndex, func() error {
			_, err := c.CandIndex(ctx, 0, 1)
			return err
		})
	}
	return nil // evict-churn: every request rebuilds; nothing stays warm
}

// surrogateOf and ruleOf are ukc.Solver's per-space defaults, which ukserver
// runs with: expected points and EP in Euclidean space, 1-centers and ED
// elsewhere.
func surrogateOf[P any](c *core.Compiled[P]) core.Surrogate {
	if c.IsEuclidean() {
		return core.SurrogateExpectedPoint
	}
	return core.SurrogateOneCenter
}

func ruleOf[P any](c *core.Compiled[P]) core.Rule {
	if c.IsEuclidean() {
		return core.RuleEP
	}
	return core.RuleED
}

// replayRequest walks r through the layers ukserver's handler reaches for
// it, timing each.
func replayRequest[P any](ctx context.Context, t *timer, c *core.Compiled[P], r *request) (answer, error) {
	var a answer
	cands := c.PipelineCandidates()
	switch r.op {
	case opSolve:
		var surr, centers []P
		if err := t.time(layerLookup, func() error {
			var err error
			surr, err = c.Surrogates(ctx, surrogateOf(c), cands, 1)
			return err
		}); err != nil {
			return a, err
		}
		if err := t.time(layerCertain, func() error {
			idx, _, err := kcenter.Gonzalez(c.Space(), surr, r.k, 0)
			centers = kcenter.Select(surr, idx)
			return err
		}); err != nil {
			return a, err
		}
		a.centers = mustJSON(centers)
		if err := t.time(layerAssign, func() error {
			var err error
			a.assign, err = core.AssignCompiled(ctx, c, centers, ruleOf(c), cands, 1)
			return err
		}); err != nil {
			return a, err
		}
		err := t.time(layerEcost, func() error {
			var err error
			if a.ecost, err = c.EcostAssigned(ctx, centers, a.assign, 1); err != nil {
				return err
			}
			a.ecostUn, err = c.EcostUnassigned(ctx, centers, 1)
			return err
		})
		return a, err
	case opAssign:
		err := t.time(layerAssign, func() error {
			var err error
			a.assign, err = core.AssignCompiled(ctx, c, r.centers.([]P), ruleOf(c), cands, 1)
			return err
		})
		return a, err
	case opEcost:
		err := t.time(layerEcost, func() error {
			var err error
			a.ecost, err = c.EcostAssigned(ctx, r.centers.([]P), r.assign, 1)
			return err
		})
		return a, err
	case opEcostUnassigned:
		err := t.time(layerEcost, func() error {
			var err error
			a.ecost, err = c.EcostUnassigned(ctx, r.centers.([]P), 1)
			return err
		})
		return a, err
	case opUnassigned:
		err := t.time(layerLS, func() error {
			centers, cost, err := core.SolveUnassignedLSCompiled(ctx, c, r.k, core.LocalSearchOptions{Parallelism: 1})
			a.centers, a.ecost = mustJSON(centers), cost
			return err
		})
		return a, err
	case opSweep:
		// Under a one-byte cache budget ukserver evicts after every
		// request, so each sweep starts from dropped caches.
		c.DropCaches()
		if err := t.time(layerEvaluator, func() error {
			_, err := c.Evaluator(ctx, 1)
			return err
		}); err != nil {
			return a, err
		}
		err := t.time(layerSweep, func() error {
			snapped := c.SnapToCandidates(r.centers.([]P))
			var err error
			a.sweep, err = core.EcostSweepCompiled(ctx, c, snapped, 1, false)
			a.snapped = mustJSON(snapped)
			return err
		})
		return a, err
	}
	return a, fmt.Errorf("unknown op %v", r.op)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
