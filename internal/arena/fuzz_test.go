package arena_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	ukc "repro"
	"repro/internal/arena"
	"repro/internal/gen"
	"repro/internal/graphmetric"
)

// FuzzOpen: the snapshot decoder must never panic and never hand out an
// instance aliasing garbage, for arbitrary file bytes. Every failure must
// classify under exactly the typed error vocabulary (errors.Is), and every
// success must yield a structurally coherent compiled instance. Run with
// `go test -fuzz=FuzzOpen ./internal/arena` to explore; the seed corpus —
// two valid snapshots plus targeted corruptions of every validation layer —
// runs as part of `go test`.
func FuzzOpen(f *testing.F) {
	eu := snapshotBytes(f, true)
	fin := snapshotBytes(f, false)
	f.Add(eu)
	f.Add(fin)
	f.Add([]byte{})
	f.Add([]byte("UKCSNAP\x00"))
	f.Add([]byte("not a snapshot at all"))
	f.Add(flip(eu, 0))                                         // magic
	f.Add(flip(eu, 8))                                         // version
	f.Add(flip(eu, 12))                                        // endianness mark
	f.Add(flip(eu, 24))                                        // point count (header CRC catches it)
	f.Add(flip(eu, 80))                                        // section table
	f.Add(flip(eu, 212))                                       // header CRC itself
	f.Add(flip(eu, len(eu)-1))                                 // payload tail (payload CRC)
	f.Add(eu[:len(eu)-8])                                      // truncated payload
	f.Add(eu[:100])                                            // truncated header
	f.Add(append(flip(eu, len(eu)-1), 0, 0, 0, 0, 0, 0, 0, 0)) // trailing junk
	f.Add(flip(fin, len(fin)-4))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ukc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []arena.Options{{}, {NoMmap: true}} {
			file, err := arena.Open(context.Background(), path, opts)
			if err != nil {
				if !typedOpenError(err) {
					t.Fatalf("untyped open error (opts %+v): %v", opts, err)
				}
				continue
			}
			checkOpened(t, file)
			if err := file.Close(); err != nil {
				t.Fatalf("closing accepted snapshot: %v", err)
			}
		}
	})
}

// typedOpenError reports whether err wraps one of the decoder's typed
// errors — the contract that lets callers classify any open failure.
func typedOpenError(err error) bool {
	for _, target := range []error{
		arena.ErrMagic, arena.ErrVersion, arena.ErrEndianness,
		arena.ErrTruncated, arena.ErrChecksum, arena.ErrLayout, arena.ErrCorrupt,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// checkOpened asserts an accepted snapshot is structurally coherent: the
// decoder's success path must only produce instances whose invariants hold.
func checkOpened(t *testing.T, file *arena.File) {
	t.Helper()
	switch file.KindName() {
	case "euclidean":
		c, err := file.Euclidean()
		if err != nil {
			t.Fatalf("euclidean snapshot refused its own kind: %v", err)
		}
		checkCompiledShape(t, c.NumPoints(), c.NumAtoms(), c.MaxZ(), len(c.CandidatesOrLocations()))
		if c.Dim() < 1 {
			t.Fatalf("accepted euclidean dim %d", c.Dim())
		}
		if len(c.Coords()) != c.NumAtoms()*c.Dim() {
			t.Fatalf("accepted %d coordinates for %d atoms of dimension %d", len(c.Coords()), c.NumAtoms(), c.Dim())
		}
	case "finite":
		c, err := file.Finite()
		if err != nil {
			t.Fatalf("finite snapshot refused its own kind: %v", err)
		}
		checkCompiledShape(t, c.NumPoints(), c.NumAtoms(), c.MaxZ(), len(c.CandidatesOrLocations()))
	default:
		t.Fatalf("accepted unknown kind %q", file.KindName())
	}
}

func checkCompiledShape(t *testing.T, n, atoms, maxZ, cands int) {
	t.Helper()
	if n < 1 || atoms < n || maxZ < 1 || maxZ > atoms || cands < 1 {
		t.Fatalf("accepted incoherent shape: n=%d atoms=%d maxZ=%d cands=%d", n, atoms, maxZ, cands)
	}
}

// snapshotBytes freezes a small deterministic instance of the given kind
// and returns the file bytes — the honest seeds the corruptions mutate.
func snapshotBytes(f *testing.F, euclidean bool) []byte {
	f.Helper()
	rng := rand.New(rand.NewSource(11))
	path := filepath.Join(f.TempDir(), "seed.ukc")
	ctx := context.Background()
	if euclidean {
		pts, err := gen.GaussianClusters(rng, 12, 3, 2, 3, 1, 0.4)
		if err != nil {
			f.Fatal(err)
		}
		c, err := ukc.NewEuclideanInstance(pts).Compile(ctx)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := arena.WriteEuclidean(ctx, path, c); err != nil {
			f.Fatal(err)
		}
	} else {
		g, _, err := graphmetric.RandomGeometric(10, 0.6, rng)
		if err != nil {
			f.Fatal(err)
		}
		space, err := g.Metric()
		if err != nil {
			f.Fatal(err)
		}
		pts, err := gen.OnVerticesLocal(rng, space, 8, 2)
		if err != nil {
			f.Fatal(err)
		}
		c, err := ukc.NewFiniteInstance(space, pts, nil).Compile(ctx)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := arena.WriteFinite(ctx, path, c); err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// flip returns a copy of b with one bit flipped at off.
func flip(b []byte, off int) []byte {
	out := append([]byte(nil), b...)
	out[off] ^= 0x01
	return out
}
