package main

// workload.go builds each workload's seeded inputs — the instance documents
// or snapshots ukserver receives, the distinct requests and the request
// sequence the callers share — and computes every distinct request's answer
// in-process with ukc.Solver under ukserver's solver options: the oracle each
// served response must match exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	ukc "repro"
	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/graphmetric"
	"repro/store"
)

// op is a workload endpoint.
type op int

const (
	opSolve op = iota
	opAssign
	opEcost           // assigned expected cost of (centers, assign)
	opEcostUnassigned // unassigned expected cost of centers
	opUnassigned
	opSweep
)

var opNames = [...]string{"solve", "assign", "ecost", "ecost_unassigned", "unassigned", "sweep"}

func (o op) String() string { return opNames[o] }

// instance is one generated instance as ukserver receives it — a dataio
// registration document or a .ukc snapshot — plus the oracle's in-process
// copy loaded from the same bytes.
type instance struct {
	name   string
	finite bool
	doc    []byte // registration document (nil for snapshot workloads)
	snap   string // .ukc path ("" for registration workloads)
	eu     ukc.Instance[ukc.Vec]
	fin    ukc.Instance[int]
}

// request is one distinct request of a workload with the oracle's answer.
type request struct {
	id      int
	op      op
	inst    *instance
	k       int
	centers any // []ukc.Vec or []int, for assign/ecost/sweep
	assign  []int
	want    answer
}

// answer is the comparable part of a response: everything but the stats.
type answer struct {
	centers json.RawMessage // canonical JSON of the centers (solve, unassigned)
	snapped json.RawMessage // canonical JSON of the snapped candidate indices (sweep)
	assign  []int
	ecost   float64
	ecostUn float64
	sweep   [][]float64
}

// cost is the expected cost ecost_mean averages: the returned ecost, or the
// best entry of a sweep matrix; ok is false for assign responses.
func (a answer) cost(o op) (float64, bool) {
	switch o {
	case opAssign:
		return 0, false
	case opSweep:
		best := a.sweep[0][0]
		for _, row := range a.sweep {
			for _, v := range row {
				if v < best {
					best = v
				}
			}
		}
		return best, true
	}
	return a.ecost, true
}

// sizes are one workload's instance counts and dimensions.
type sizes struct {
	euInsts, finInsts int
	euN, z, clusters  int     // Euclidean Gaussian-cluster instances
	spread, jitter    float64 // cluster spread and per-location jitter
	finN, vertices    int     // finite instances on a geometric graph
	radius            float64 // geometric-graph connection radius
}

// workload is everything one run needs: instances, distinct requests, the
// shared request sequence and the ukserver flags.
type workload struct {
	name   string
	tail   float64  // the percentile latency_tail_ms reports
	flags  []string // ukserver flags beyond -addr
	insts  []*instance
	reqs   []*request
	seq    []int // request ids, cycled by the callers
	warmup []int // request ids every setup runs before measuring
}

// workloadNames lists the workloads in the order the smoke mode runs them.
var workloadNames = []string{"solve-mix", "unassigned-ls", "evict-churn"}

// ukserver's flags on every workload: one shard with one worker per
// instance kind and a sequential solver, so one request executes while the
// next waits in the queue and no second solver thread competes for the CPUs.
var baseFlags = []string{"-shards", "1", "-workers", "1", "-parallel", "1"}

// newSolvers returns the oracle solvers, configured as ukserver -parallel 1
// configures its own.
func newSolvers() (*ukc.Solver[ukc.Vec], *ukc.Solver[int]) {
	return ukc.NewSolver[ukc.Vec](ukc.WithParallelism(1)), ukc.NewSolver[int](ukc.WithParallelism(1))
}

// buildWorkload generates the named workload from seed. smoke selects tiny
// sizes; dir receives snapshots.
func buildWorkload(ctx context.Context, name string, seed int64, smoke bool, dir string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "solve-mix":
		s := sizes{euInsts: 6, finInsts: 2, euN: 1000, z: 10, clusters: 64, spread: 0.6, jitter: 0.3, finN: 500, vertices: 300, radius: 0.1}
		ks := []int{4, 8, 12}
		if smoke {
			s = sizes{euInsts: 2, finInsts: 1, euN: 60, z: 3, clusters: 4, spread: 0.6, jitter: 0.3, finN: 40, vertices: 40, radius: 0.3}
			ks = []int{2, 3}
		}
		return solveMix(ctx, rng, s, ks)
	case "unassigned-ls":
		s := sizes{euN: 60, z: 4, clusters: 32, spread: 0.6, jitter: 0.3}
		ks := []int{4}
		if smoke {
			s = sizes{euN: 20, z: 3, clusters: 4, spread: 0.6, jitter: 0.3}
			ks = []int{2}
		}
		return unassignedLS(ctx, rng, s, ks)
	case "evict-churn":
		s := sizes{euN: 200, z: 4, clusters: 64, spread: 0.6, jitter: 0.3}
		if smoke {
			s = sizes{euN: 20, z: 3, clusters: 4, spread: 0.6, jitter: 0.3}
		}
		return evictChurn(ctx, rng, s, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// euclideanDoc generates one Gaussian-cluster instance as a dataio document
// and loads the oracle's copy from the same bytes ukserver will decode.
func euclideanDoc(rng *rand.Rand, name string, s sizes) (*instance, error) {
	pts, err := gen.GaussianClusters(rng, s.euN, s.z, 2, s.clusters, s.spread, s.jitter)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataio.WriteEuclidean(&buf, pts); err != nil {
		return nil, err
	}
	in, err := ukc.ReadCompiledInstance(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &instance{name: name, doc: buf.Bytes(), eu: in}, nil
}

// finiteDoc generates one instance over a random geometric graph's
// shortest-path metric, each point's locations the z vertices nearest a
// random anchor.
func finiteDoc(rng *rand.Rand, name string, s sizes) (*instance, error) {
	g, _, err := graphmetric.RandomGeometric(s.vertices, s.radius, rng)
	if err != nil {
		return nil, err
	}
	space, err := g.Metric()
	if err != nil {
		return nil, err
	}
	pts, err := gen.OnVerticesLocal(rng, space, s.finN, s.z)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataio.WriteFinite(&buf, space, pts); err != nil {
		return nil, err
	}
	in, err := ukc.ReadCompiledFiniteInstance(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &instance{name: name, finite: true, doc: buf.Bytes(), fin: in}, nil
}

// mustJSON is the canonical encoding the gateway uses for a response value.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshaling %T: %v", v, err))
	}
	return b
}

// shuffledBlocks returns blocks concatenated seeded permutations of ids.
func shuffledBlocks(rng *rand.Rand, ids []int, blocks int) []int {
	var seq []int
	for b := 0; b < blocks; b++ {
		perm := rng.Perm(len(ids))
		for _, p := range perm {
			seq = append(seq, ids[p])
		}
	}
	return seq
}

// solveMix: assigned-version traffic on warm instances of both kinds —
// solve, assign, assigned and unassigned ecost on two Euclidean instances
// (EP path) and one finite graph instance (OC/ED path), for each k.
func solveMix(ctx context.Context, rng *rand.Rand, s sizes, ks []int) (*workload, error) {
	w := &workload{name: "solve-mix", tail: 0.99, flags: baseFlags}
	for i := 0; i < s.euInsts; i++ {
		in, err := euclideanDoc(rng, fmt.Sprintf("eu-%d", i), s)
		if err != nil {
			return nil, err
		}
		w.insts = append(w.insts, in)
	}
	for i := 0; i < s.finInsts; i++ {
		in, err := finiteDoc(rng, fmt.Sprintf("fin-%d", i), s)
		if err != nil {
			return nil, err
		}
		w.insts = append(w.insts, in)
	}

	euSolver, finSolver := newSolvers()
	add := func(r *request) {
		r.id = len(w.reqs)
		w.reqs = append(w.reqs, r)
	}
	for _, in := range w.insts {
		for _, k := range ks {
			// The assign and ecost requests evaluate the centers (and the
			// assignment) the solve for k returns.
			centers, assign, err := solveFor(ctx, euSolver, finSolver, in, k)
			if err != nil {
				return nil, err
			}
			add(&request{op: opSolve, inst: in, k: k})
			add(&request{op: opAssign, inst: in, centers: centers})
			add(&request{op: opEcost, inst: in, centers: centers, assign: assign})
			add(&request{op: opEcostUnassigned, inst: in, centers: centers})
		}
	}
	for _, r := range w.reqs {
		if err := r.oracle(ctx, euSolver, finSolver); err != nil {
			return nil, err
		}
	}
	ids := allIDs(w.reqs)
	w.seq = shuffledBlocks(rng, ids, 4)
	w.warmup = shuffledBlocks(rng, ids, 3)
	return w, nil
}

// unassignedLS: unassigned local search on warm Euclidean instances whose
// candidate sets are all their point locations.
func unassignedLS(ctx context.Context, rng *rand.Rand, s sizes, ks []int) (*workload, error) {
	w := &workload{name: "unassigned-ls", tail: 0.95, flags: baseFlags}
	// Local-search work varies from instance to instance; many small
	// instances keep the mix's mean steady from seed to seed.
	for i := 0; i < 48; i++ {
		in, err := euclideanDoc(rng, fmt.Sprintf("ls-%d", i), s)
		if err != nil {
			return nil, err
		}
		w.insts = append(w.insts, in)
	}
	for _, in := range w.insts {
		for _, k := range ks {
			w.reqs = append(w.reqs, &request{id: len(w.reqs), op: opUnassigned, inst: in, k: k})
		}
	}
	euSolver, finSolver := newSolvers()
	for _, r := range w.reqs {
		if err := r.oracle(ctx, euSolver, finSolver); err != nil {
			return nil, err
		}
	}
	ids := allIDs(w.reqs)
	w.seq = shuffledBlocks(rng, ids, 4)
	w.warmup = shuffledBlocks(rng, ids, 1)
	return w, nil
}

// evictChurn: swap-neighborhood sweeps sent round-robin over more instances
// than the cache budget holds, warm-started from snapshots, so every
// request rebuilds the distance-RV evaluator.
func evictChurn(ctx context.Context, rng *rand.Rand, s sizes, dir string) (*workload, error) {
	const k, centerSets = 2, 3
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.RemoveAll(snapDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	w := &workload{name: "evict-churn", tail: 0.90,
		flags: append(append([]string(nil), baseFlags...), "-cache-budget", "1", "-snapshot-dir", snapDir)}
	for i := 0; i < 6; i++ {
		src, err := euclideanDoc(rng, fmt.Sprintf("churn-%d", i), s)
		if err != nil {
			return nil, err
		}
		c, err := src.eu.Compile(ctx)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(snapDir, src.name+".ukc")
		if _, err := store.Write(ctx, path, c); err != nil {
			return nil, err
		}
		// The oracle reads the snapshot ukserver warm-starts from.
		in, err := ukc.OpenSnapshotInstance(path)
		if err != nil {
			return nil, err
		}
		w.insts = append(w.insts, &instance{name: src.name, snap: path, eu: in})
	}
	// Round-robin: consecutive requests name different instances.
	for set := 0; set < centerSets; set++ {
		for _, in := range w.insts {
			centers := make([]ukc.Vec, k)
			for j := range centers {
				p := in.eu.Points[rng.Intn(len(in.eu.Points))]
				centers[j] = p.Locs[rng.Intn(len(p.Locs))]
			}
			w.reqs = append(w.reqs, &request{id: len(w.reqs), op: opSweep, inst: in, centers: centers})
		}
	}
	euSolver, finSolver := newSolvers()
	for _, r := range w.reqs {
		if err := r.oracle(ctx, euSolver, finSolver); err != nil {
			return nil, err
		}
	}
	ids := allIDs(w.reqs)
	for b := 0; b < 4; b++ {
		w.seq = append(w.seq, ids...)
	}
	w.warmup = ids
	return w, nil
}

// solveFor returns the centers and assignment of the oracle's solve of in
// with k centers.
func solveFor(ctx context.Context, eu *ukc.Solver[ukc.Vec], fin *ukc.Solver[int], in *instance, k int) (any, []int, error) {
	if in.finite {
		res, err := fin.Solve(ctx, in.fin, k)
		return res.Centers, res.Assign, err
	}
	res, err := eu.Solve(ctx, in.eu, k)
	return res.Centers, res.Assign, err
}

func allIDs(reqs []*request) []int {
	ids := make([]int, len(reqs))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// oracle computes r.want with the in-process solver method ukserver's
// handler for r.op calls.
func (r *request) oracle(ctx context.Context, eu *ukc.Solver[ukc.Vec], fin *ukc.Solver[int]) error {
	var err error
	if r.inst.finite {
		r.want, err = oracleAnswer(ctx, fin, r.inst.fin, r)
	} else {
		r.want, err = oracleAnswer(ctx, eu, r.inst.eu, r)
	}
	if err != nil {
		return fmt.Errorf("oracle %s on %s: %w", r.op, r.inst.name, err)
	}
	return nil
}

func oracleAnswer[P any](ctx context.Context, s *ukc.Solver[P], in ukc.Instance[P], r *request) (answer, error) {
	var a answer
	var err error
	switch r.op {
	case opSolve:
		var res ukc.ResultOf[P]
		res, err = s.Solve(ctx, in, r.k)
		a = answer{centers: mustJSON(res.Centers), assign: res.Assign, ecost: res.Ecost, ecostUn: res.EcostUnassigned}
	case opAssign:
		a.assign, err = s.Assign(ctx, in, r.centers.([]P))
	case opEcost:
		a.ecost, err = s.Ecost(ctx, in, r.centers.([]P), r.assign)
	case opEcostUnassigned:
		a.ecost, err = s.EcostUnassigned(ctx, in, r.centers.([]P))
	case opUnassigned:
		var centers []P
		centers, a.ecost, err = s.SolveUnassigned(ctx, in, r.k)
		a.centers = mustJSON(centers)
	case opSweep:
		var snapped []int
		a.sweep, snapped, err = s.EcostSweep(ctx, in, r.centers.([]P))
		a.snapped = mustJSON(snapped)
	}
	return a, err
}

// match reports how got differs from want on the fields r.op's response
// carries ("" when it matches exactly).
func (r *request) match(got answer) string {
	w := r.want
	switch r.op {
	case opSolve:
		if !bytes.Equal(got.centers, w.centers) {
			return "centers differ"
		}
		if !equalInts(got.assign, w.assign) {
			return "assign differs"
		}
		if got.ecost != w.ecost || got.ecostUn != w.ecostUn {
			return fmt.Sprintf("ecost %v/%v, want %v/%v", got.ecost, got.ecostUn, w.ecost, w.ecostUn)
		}
	case opAssign:
		if !equalInts(got.assign, w.assign) {
			return "assign differs"
		}
	case opEcost, opEcostUnassigned:
		if got.ecost != w.ecost {
			return fmt.Sprintf("ecost %v, want %v", got.ecost, w.ecost)
		}
	case opUnassigned:
		if !bytes.Equal(got.centers, w.centers) {
			return "centers differ"
		}
		if got.ecost != w.ecost {
			return fmt.Sprintf("ecost %v, want %v", got.ecost, w.ecost)
		}
	case opSweep:
		if !bytes.Equal(got.snapped, w.snapped) {
			return "snapped centers differ"
		}
		if len(got.sweep) != len(w.sweep) {
			return "sweep shape differs"
		}
		for i := range w.sweep {
			if len(got.sweep[i]) != len(w.sweep[i]) {
				return "sweep shape differs"
			}
			for j, v := range w.sweep[i] {
				if got.sweep[i][j] != v {
					return fmt.Sprintf("sweep[%d][%d] = %v, want %v", i, j, got.sweep[i][j], v)
				}
			}
		}
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
