package store_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	ukc "repro"
	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/store"
)

// The PR-7 trajectory benchmarks: what a restart costs with and without
// snapshots. BenchmarkSnapshotColdJSON is the old boot path (parse JSON,
// validate, prune, flatten); BenchmarkSnapshotOpen is the snapshot path
// (bounds/CRC sweep plus slice reinterpretation); BenchmarkSnapshotWarmSolve
// shows that solving off the mapped arena costs the same as off the heap.
// `make bench` runs all three.

// benchSetup builds one deterministic instance per size and returns its
// JSON document and frozen snapshot path.
func benchSetup(b *testing.B, points int) (doc []byte, snapPath string) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(points)))
	pts, err := gen.GaussianClusters(rng, points, 4, 3, 5, 2.0, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataio.WriteEuclidean(&buf, pts); err != nil {
		b.Fatal(err)
	}
	c, err := ukc.NewEuclideanInstance(pts).Compile(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	snapPath = filepath.Join(b.TempDir(), "bench.ukc")
	if _, err := store.Write(context.Background(), snapPath, c); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), snapPath
}

var benchSizes = []int{500, 5000}

// BenchmarkSnapshotColdJSON is the cold boot path a snapshot replaces:
// decode, validate and flatten the JSON document into a compiled instance.
func BenchmarkSnapshotColdJSON(b *testing.B) {
	for _, n := range benchSizes {
		doc, _ := benchSetup(b, n)
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ukc.ReadCompiledInstance(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotOpen is the warm boot path: validate and alias the
// snapshot. The mmap and aligned-read backends are measured separately,
// plus the checksum-skipping open for trusted local files.
func BenchmarkSnapshotOpen(b *testing.B) {
	for _, n := range benchSizes {
		_, path := benchSetup(b, n)
		variants := []struct {
			name string
			opts []store.OpenOption
		}{
			{"mmap", nil},
			{"nommap", []store.OpenOption{store.NoMmap()}},
			{"mmap-nocrc", []store.OpenOption{store.SkipChecksum()}},
		}
		for _, v := range variants {
			if v.name != "nommap" && !store.MmapAvailable() {
				continue
			}
			b.Run(fmt.Sprintf("points=%d/%s", n, v.name), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					snap, err := store.Open(context.Background(), path, v.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := snap.Euclidean(); err != nil {
						b.Fatal(err)
					}
					if err := snap.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSnapshotWarmSolve compares steady-state solving on the mapped
// arena against the in-memory compiled original — the cost (none, beyond
// page faults on first touch) of serving straight off a snapshot.
func BenchmarkSnapshotWarmSolve(b *testing.B) {
	const n = 500
	doc, path := benchSetup(b, n)
	ctx := context.Background()
	solver := ukc.NewSolver[ukc.Vec]()

	memInst, err := ukc.ReadCompiledInstance(bytes.NewReader(doc))
	if err != nil {
		b.Fatal(err)
	}
	snap, err := store.Open(ctx, path)
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	snapInst, err := snap.EuclideanInstance()
	if err != nil {
		b.Fatal(err)
	}

	for _, v := range []struct {
		name string
		inst ukc.Instance[ukc.Vec]
	}{{"memory", memInst}, {"snapshot", snapInst}} {
		b.Run(v.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(ctx, v.inst, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
