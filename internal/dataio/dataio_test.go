package dataio

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

func TestEuclideanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, err := gen.GaussianClusters(rng, 8, 3, 2, 2, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEuclidean(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEuclidean(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip size %d, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i].Z() != pts[i].Z() {
			t.Fatalf("point %d: z %d, want %d", i, got[i].Z(), pts[i].Z())
		}
		for j := range pts[i].Locs {
			if !got[i].Locs[j].Equal(pts[i].Locs[j], 1e-12) {
				t.Fatalf("point %d location %d: %v vs %v", i, j, got[i].Locs[j], pts[i].Locs[j])
			}
			if math.Abs(got[i].Probs[j]-pts[i].Probs[j]) > 1e-12 {
				t.Fatalf("point %d prob %d differs", i, j)
			}
		}
	}
}

func TestFiniteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := make([]geom.Vec, 6)
	for i := range vecs {
		vecs[i] = geom.Vec{rng.Float64(), rng.Float64()}
	}
	space := metricspace.FromPoints[geom.Vec](metricspace.Euclidean{}, vecs)
	pts, err := gen.OnVertices(rng, space, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFinite(&buf, space, pts); err != nil {
		t.Fatal(err)
	}
	gotSpace, gotPts, err := ReadFinite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotSpace.N() != space.N() {
		t.Fatalf("space size %d, want %d", gotSpace.N(), space.N())
	}
	for i := 0; i < space.N(); i++ {
		for j := 0; j < space.N(); j++ {
			if math.Abs(gotSpace.Dist(i, j)-space.Dist(i, j)) > 1e-12 {
				t.Fatalf("metric differs at (%d,%d)", i, j)
			}
		}
	}
	if len(gotPts) != len(pts) {
		t.Fatalf("points %d, want %d", len(gotPts), len(pts))
	}
}

func TestReadEuclideanRejections(t *testing.T) {
	cases := map[string]string{
		"bad json":      "{",
		"wrong kind":    `{"kind":"finite"}`,
		"no points":     `{"kind":"euclidean","dim":2}`,
		"dim mismatch":  `{"kind":"euclidean","dim":2,"points":[{"locs":[[1]],"probs":[1]}]}`,
		"bad probs":     `{"kind":"euclidean","dim":1,"points":[{"locs":[[1]],"probs":[0.4]}]}`,
		"empty locs":    `{"kind":"euclidean","dim":1,"points":[{"locs":[],"probs":[]}]}`,
		"nonfinite loc": `{"kind":"euclidean","dim":1,"points":[{"locs":[[1e999]],"probs":[1]}]}`,
		"unknown field": `{"kind":"euclidean","points":[{"locs":[[1,2]],"probs":[1]}],"candidates":[[9,9]]}`,
		"trailing data": `{"kind":"euclidean","points":[{"locs":[[1,2]],"probs":[1]}]} {"kind":"euclidean"}`,
	}
	for name, doc := range cases {
		if _, err := ReadEuclidean(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadFiniteRejections(t *testing.T) {
	cases := map[string]string{
		"bad json":         "{",
		"wrong kind":       `{"kind":"euclidean"}`,
		"no points":        `{"kind":"finite","metric":[[0]]}`,
		"asymmetric":       `{"kind":"finite","metric":[[0,1],[2,0]],"finite_points":[{"locs":[0],"probs":[1]}]}`,
		"vertex oob":       `{"kind":"finite","metric":[[0]],"finite_points":[{"locs":[3],"probs":[1]}]}`,
		"negative vertex":  `{"kind":"finite","metric":[[0]],"finite_points":[{"locs":[-1],"probs":[1]}]}`,
		"probs not normal": `{"kind":"finite","metric":[[0]],"finite_points":[{"locs":[0],"probs":[0.5]}]}`,
		"unknown field":    `{"kind":"finite","metric":[[0]],"finite_points":[{"locs":[0],"probs":[1]}],"candidates":[0]}`,
		"trailing data":    `{"kind":"finite","metric":[[0]],"finite_points":[{"locs":[0],"probs":[1]}]} x`,
	}
	for name, doc := range cases {
		if _, _, err := ReadFinite(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadCompiledLoaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, err := gen.GaussianClusters(rng, 8, 3, 2, 2, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEuclidean(&buf, pts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	c, err := ReadEuclideanCompiled(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPoints() != len(pts) {
		t.Fatalf("compiled NumPoints %d, want %d", c.NumPoints(), len(pts))
	}
	if got, want := c.NumAtoms(), uncertain.TotalLocations(pts); got != want {
		t.Fatalf("compiled NumAtoms %d, want %d", got, want)
	}
	if !c.IsEuclidean() || c.Dim() != 2 {
		t.Fatalf("compiled euclidean=%v dim=%d", c.IsEuclidean(), c.Dim())
	}
	// The compiled loader must reject what the plain loader rejects.
	for name, doc := range map[string]string{
		"bad probs":     `{"kind":"euclidean","dim":1,"points":[{"locs":[[1]],"probs":[0.4]}]}`,
		"nonfinite loc": `{"kind":"euclidean","dim":1,"points":[{"locs":[[1e999]],"probs":[1]}]}`,
		"unknown field": `{"kind":"euclidean","points":[{"locs":[[1,2]],"probs":[1]}],"candidates":[[9,9]]}`,
		"trailing data": `{"kind":"euclidean","points":[{"locs":[[1,2]],"probs":[1]}]} {"kind":"euclidean"}`,
	} {
		if _, err := ReadEuclideanCompiled(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted by compiled loader", name)
		}
	}

	vecs := make([]geom.Vec, 5)
	for i := range vecs {
		vecs[i] = geom.Vec{rng.Float64(), rng.Float64()}
	}
	space := metricspace.FromPoints[geom.Vec](metricspace.Euclidean{}, vecs)
	fpts, err := gen.OnVertices(rng, space, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFinite(&buf, space, fpts); err != nil {
		t.Fatal(err)
	}
	gotSpace, fc, err := ReadFiniteCompiled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fc.NumPoints() != len(fpts) {
		t.Fatalf("finite compiled NumPoints %d, want %d", fc.NumPoints(), len(fpts))
	}
	// The candidate set defaults to all space points.
	if got, want := len(fc.Candidates()), gotSpace.N(); got != want {
		t.Fatalf("finite compiled candidates %d, want %d", got, want)
	}
}

func TestWriteValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEuclidean(&buf, nil); err == nil {
		t.Error("empty set accepted")
	}
	bad := []uncertain.Point[geom.Vec]{{Locs: []geom.Vec{{0}}, Probs: []float64{2}}}
	if err := WriteEuclidean(&buf, bad); err == nil {
		t.Error("invalid point accepted")
	}
	space, _ := metricspace.NewFinite([][]float64{{0}})
	if err := WriteFinite(&buf, space, nil); err == nil {
		t.Error("empty finite set accepted")
	}
}
