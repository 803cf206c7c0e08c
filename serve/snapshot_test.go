package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	ukc "repro"
	"repro/internal/gen"
	"repro/internal/graphmetric"
	"repro/obs"
	"repro/serve"
	"repro/store"
)

func snapEuPoints(t *testing.T, seed int64) []ukc.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts, err := gen.GaussianClusters(rng, 30, 3, 2, 3, 2.0, 0.4)
	if err != nil {
		t.Fatalf("GaussianClusters: %v", err)
	}
	return pts
}

func snapFinInstance(t *testing.T, seed int64) ukc.Instance[int] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _, err := graphmetric.RandomGeometric(25, 0.5, rng)
	if err != nil {
		t.Fatalf("RandomGeometric: %v", err)
	}
	space, err := g.Metric()
	if err != nil {
		t.Fatalf("Metric: %v", err)
	}
	pts, err := gen.OnVerticesLocal(rng, space, 18, 3)
	if err != nil {
		t.Fatalf("OnVerticesLocal: %v", err)
	}
	return ukc.NewFiniteInstance(space, pts, nil)
}

// writeSnapshot compiles inst and freezes it at dir/name.ukc.
func writeSnapshot[P any](t *testing.T, dir, name string, inst ukc.Instance[P]) string {
	t.Helper()
	c, err := inst.Compile(context.Background())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	path := filepath.Join(dir, name+serve.SnapshotExt)
	if _, err := store.Write(context.Background(), path, c); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

// TestRegisterSnapshotServesIdentically pins the core warm-restart
// guarantee at the serving layer: a server holding the frozen-then-opened
// instance answers every workload bit-identically to a server holding the
// in-memory compiled original.
func TestRegisterSnapshotServesIdentically(t *testing.T) {
	mem := ukc.NewEuclideanInstance(snapEuPoints(t, 1))
	path := writeSnapshot(t, t.TempDir(), "inst", mem)

	cold, err := serve.New[ukc.Vec](nil)
	if err != nil {
		t.Fatalf("New(cold): %v", err)
	}
	defer cold.Close()
	if err := cold.Register(context.Background(), "inst", mem); err != nil {
		t.Fatalf("Register: %v", err)
	}
	warm, err := serve.New[ukc.Vec](nil)
	if err != nil {
		t.Fatalf("New(warm): %v", err)
	}
	defer warm.Close()
	if err := warm.RegisterSnapshot(context.Background(), "inst", path); err != nil {
		t.Fatalf("RegisterSnapshot: %v", err)
	}

	ctx := context.Background()
	req := serve.SolveRequest{Instance: "inst", K: 3}
	coldRes, err := cold.Solve(ctx, req)
	if err != nil {
		t.Fatalf("Solve(cold): %v", err)
	}
	warmRes, err := warm.Solve(ctx, req)
	if err != nil {
		t.Fatalf("Solve(warm): %v", err)
	}
	if !reflect.DeepEqual(coldRes.Result, warmRes.Result) {
		t.Fatalf("served results diverge:\ncold %+v\nwarm %+v", coldRes.Result, warmRes.Result)
	}

	coldUn, err := cold.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst", K: 3})
	if err != nil {
		t.Fatalf("SolveUnassigned(cold): %v", err)
	}
	warmUn, err := warm.SolveUnassigned(ctx, serve.UnassignedRequest{Instance: "inst", K: 3})
	if err != nil {
		t.Fatalf("SolveUnassigned(warm): %v", err)
	}
	if !reflect.DeepEqual(coldUn.Centers, warmUn.Centers) || coldUn.Ecost != warmUn.Ecost {
		t.Fatalf("unassigned solves diverge: cold %v (%v), warm %v (%v)",
			coldUn.Centers, coldUn.Ecost, warmUn.Centers, warmUn.Ecost)
	}
}

// TestRegisterSnapshotKindMismatch pins the typed cross-kind rejection.
func TestRegisterSnapshotKindMismatch(t *testing.T) {
	path := writeSnapshot(t, t.TempDir(), "fin", snapFinInstance(t, 2))
	s, err := serve.New[ukc.Vec](nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	err = s.RegisterSnapshot(context.Background(), "fin", path)
	if !errors.Is(err, serve.ErrSnapshotKind) {
		t.Fatalf("RegisterSnapshot error = %v, want ErrSnapshotKind", err)
	}
	if len(s.Names()) != 0 {
		t.Fatalf("mismatched snapshot entered the registry: %v", s.Names())
	}
}

// TestWithSnapshotDirWarmStart pins the warm-restart acceptance criterion:
// a server booted against a snapshot directory registers every snapshot of
// its kind (skipping the other kind), serves without a single compile span
// firing, and answers identically to the pre-freeze server.
func TestWithSnapshotDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	memA := ukc.NewEuclideanInstance(snapEuPoints(t, 3))
	memB := ukc.NewEuclideanInstance(snapEuPoints(t, 4))
	writeSnapshot(t, dir, "a", memA)
	writeSnapshot(t, dir, "b", memB)
	writeSnapshot(t, dir, "other-kind", snapFinInstance(t, 5))

	cold, err := serve.New[ukc.Vec](nil)
	if err != nil {
		t.Fatalf("New(cold): %v", err)
	}
	defer cold.Close()
	if err := cold.Register(context.Background(), "a", memA); err != nil {
		t.Fatalf("Register: %v", err)
	}
	coldRes, err := cold.Solve(context.Background(), serve.SolveRequest{Instance: "a", K: 3})
	if err != nil {
		t.Fatalf("Solve(cold): %v", err)
	}

	rec := &obs.Recorder{}
	warm, err := serve.New[ukc.Vec](ukc.NewSolver[ukc.Vec](ukc.WithTracer(rec)), serve.WithSnapshotDir(dir))
	if err != nil {
		t.Fatalf("New(warm): %v", err)
	}
	defer warm.Close()
	if got, want := warm.Names(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-start registry = %v, want %v", got, want)
	}
	warmRes, err := warm.Solve(context.Background(), serve.SolveRequest{Instance: "a", K: 3})
	if err != nil {
		t.Fatalf("Solve(warm): %v", err)
	}
	if !reflect.DeepEqual(coldRes.Result, warmRes.Result) {
		t.Fatalf("warm-start solve diverges from pre-freeze solve")
	}

	// The whole point of the snapshot path: nothing was recompiled. The
	// compile.* span vocabulary must be absent, and the assertion must not
	// be vacuous — the tracer demonstrably saw the solve (surrogate builds
	// fire on the first warm request).
	var sawBuild bool
	for _, sp := range rec.Spans() {
		if strings.HasPrefix(sp.Name, "compile.") {
			t.Fatalf("compile span %q fired on warm start", sp.Name)
		}
		if strings.HasPrefix(sp.Name, "surrogate.build") {
			sawBuild = true
		}
	}
	if !sawBuild {
		t.Fatalf("tracer saw no cache-build spans — the no-compile assertion is vacuous")
	}
}

// TestWithSnapshotDirCorrupt pins the quarantine contract: a corrupt
// snapshot in the warm-start set is renamed to "*.quarantine", counted, and
// skipped — the healthy remainder boots and serves. (Until PR 8 a corrupt
// file aborted New; the fault-tolerance layer deliberately changed this so
// one bit-rotted file cannot hold every healthy instance hostage.)
func TestWithSnapshotDirCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, "good", ukc.NewEuclideanInstance(snapEuPoints(t, 6)))
	bad := filepath.Join(dir, "bad"+serve.SnapshotExt)
	if err := os.WriteFile(bad, []byte("UKCSNAP\x00garbage"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := serve.New[ukc.Vec](nil, serve.WithSnapshotDir(dir))
	if err != nil {
		t.Fatalf("New failed on a corrupt snapshot instead of quarantining it: %v", err)
	}
	defer s.Close()
	if got, want := s.Names(), []string{"good"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("registry after quarantine = %v, want %v", got, want)
	}
	if _, err := s.Solve(context.Background(), serve.SolveRequest{Instance: "good", K: 3}); err != nil {
		t.Fatalf("Solve(good) after quarantine: %v", err)
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt snapshot still in place: stat err = %v", err)
	}
	if _, err := os.Stat(bad + serve.QuarantineExt); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if n := s.Metrics().SnapshotsQuarantined; n != 1 {
		t.Fatalf("SnapshotsQuarantined = %d, want 1", n)
	}

	// A second boot over the same dir must not re-trip on the quarantined
	// file (it no longer matches the scan) and must not double-count.
	s2, err := serve.New[ukc.Vec](nil, serve.WithSnapshotDir(dir))
	if err != nil {
		t.Fatalf("New after quarantine: %v", err)
	}
	defer s2.Close()
	if n := s2.Metrics().SnapshotsQuarantined; n != 0 {
		t.Fatalf("second boot SnapshotsQuarantined = %d, want 0", n)
	}
}

// TestWithSnapshotDirSweepsTemps pins the crash-hygiene satellite: stale
// "*.ukc.tmp" write temporaries are removed (and counted) at warm start,
// while real snapshots and unrelated files are untouched.
func TestWithSnapshotDirSweepsTemps(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, "good", ukc.NewEuclideanInstance(snapEuPoints(t, 8)))
	stale1 := filepath.Join(dir, "good"+serve.SnapshotExt+".tmp")
	stale2 := filepath.Join(dir, "dead"+serve.SnapshotExt+".tmp")
	unrelated := filepath.Join(dir, "notes.txt")
	for _, p := range []string{stale1, stale2, unrelated} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatalf("WriteFile(%s): %v", p, err)
		}
	}
	s, err := serve.New[ukc.Vec](nil, serve.WithSnapshotDir(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for _, p := range []string{stale1, stale2} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale temp %s survived the sweep: stat err = %v", p, err)
		}
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Fatalf("unrelated file swept: %v", err)
	}
	if got, want := s.Names(), []string{"good"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	if n := s.Metrics().TempFilesSwept; n != 2 {
		t.Fatalf("TempFilesSwept = %d, want 2", n)
	}
}

// TestFreezeOnShutdown pins the drain-freeze round trip: a server with
// WithFreezeOnShutdown writes every registered instance to the snapshot dir
// on Close, and a second server warm-starts the full set and answers
// identically.
func TestFreezeOnShutdown(t *testing.T) {
	dir := t.TempDir()
	memA := ukc.NewEuclideanInstance(snapEuPoints(t, 9))
	memB := ukc.NewEuclideanInstance(snapEuPoints(t, 10))

	s, err := serve.New[ukc.Vec](nil, serve.WithSnapshotDir(dir), serve.WithFreezeOnShutdown(true))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for name, inst := range map[string]ukc.Instance[ukc.Vec]{"a": memA, "b": memB} {
		if err := s.Register(context.Background(), name, inst); err != nil {
			t.Fatalf("Register(%s): %v", name, err)
		}
	}
	want, err := s.Solve(context.Background(), serve.SolveRequest{Instance: "a", K: 3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	s.Close()

	for _, name := range []string{"a", "b"} {
		if _, err := os.Stat(filepath.Join(dir, name+serve.SnapshotExt)); err != nil {
			t.Fatalf("frozen snapshot %s missing: %v", name, err)
		}
	}
	warm, err := serve.New[ukc.Vec](nil, serve.WithSnapshotDir(dir))
	if err != nil {
		t.Fatalf("New(warm): %v", err)
	}
	defer warm.Close()
	if got, wantNames := warm.Names(), []string{"a", "b"}; !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("warm registry = %v, want %v", got, wantNames)
	}
	got, err := warm.Solve(context.Background(), serve.SolveRequest{Instance: "a", K: 3})
	if err != nil {
		t.Fatalf("Solve(warm): %v", err)
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Fatalf("freeze/thaw solve diverges")
	}
}

// TestRegisterSnapshotDuplicate pins that a duplicate name is rejected and
// does not disturb the existing entry.
func TestRegisterSnapshotDuplicate(t *testing.T) {
	mem := ukc.NewEuclideanInstance(snapEuPoints(t, 7))
	path := writeSnapshot(t, t.TempDir(), "inst", mem)
	s, err := serve.New[ukc.Vec](nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if err := s.RegisterSnapshot(context.Background(), "inst", path); err != nil {
		t.Fatalf("RegisterSnapshot: %v", err)
	}
	if err := s.RegisterSnapshot(context.Background(), "inst", path); err == nil {
		t.Fatalf("duplicate RegisterSnapshot succeeded")
	}
	if _, err := s.Solve(context.Background(), serve.SolveRequest{Instance: "inst", K: 2}); err != nil {
		t.Fatalf("Solve after duplicate rejection: %v", err)
	}
}
