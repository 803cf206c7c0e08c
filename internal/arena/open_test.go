package arena

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
)

// TestOpenAliasesCoordinateSection: an opened Euclidean snapshot's
// coordinate column is the decoded locs section itself, not a copy, on
// both backends, and every location aliases it.
func TestOpenAliasesCoordinateSection(t *testing.T) {
	ctx := context.Background()
	pts, err := gen.GaussianClusters(rand.New(rand.NewSource(3)), 10, 3, 3, 2, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile[geom.Vec](ctx, metricspace.Euclidean{}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eu.ukc")
	if _, err := WriteEuclidean(ctx, path, c); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {NoMmap: true}} {
		f, err := Open(ctx, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := f.Euclidean()
		if err != nil {
			t.Fatal(err)
		}
		xy, want := oc.Coords(), c.Coords()
		if len(xy) != len(want) {
			t.Fatalf("NoMmap=%v: %d coordinates, want %d", opts.NoMmap, len(xy), len(want))
		}
		for i := range xy {
			if xy[i] != want[i] {
				t.Fatalf("NoMmap=%v: coordinate %d = %v, want %v", opts.NoMmap, i, xy[i], want[i])
			}
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(f.data)))
		start := uintptr(unsafe.Pointer(unsafe.SliceData(xy)))
		if start < lo || start+8*uintptr(len(xy)) > lo+uintptr(len(f.data)) {
			t.Fatalf("NoMmap=%v: the coordinate column lies outside the snapshot bytes", opts.NoMmap)
		}
		locs, _, _, _ := oc.FlatAtoms()
		for a, loc := range locs {
			if &loc[0] != &xy[a*oc.Dim()] {
				t.Fatalf("NoMmap=%v: atom %d does not alias the coordinate column", opts.NoMmap, a)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
