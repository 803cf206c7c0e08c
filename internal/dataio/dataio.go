// Package dataio serializes uncertain k-center instances to and from JSON,
// for the command-line tools and examples. Two instance kinds exist:
// "euclidean" (locations are coordinate vectors) and "finite" (locations are
// vertex indices of an explicit distance matrix).
//
// Each kind has two loaders: ReadEuclidean/ReadFinite return the plain point
// set, and ReadEuclideanCompiled/ReadFiniteCompiled load the dataset
// straight into the compiled flat representation (internal/core.Compiled)
// with a single validation pass — the decode performs only the structural
// checks JSON cannot express (finite coordinates, vertex ranges), and
// compilation validates probabilities, checks dimensions and flattens in
// one sweep. Serving systems that load-then-solve should prefer the
// compiled loaders: nothing is validated or flattened twice.
package dataio

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
)

// KindEuclidean and KindFinite are the instance kinds.
const (
	KindEuclidean = "euclidean"
	KindFinite    = "finite"
)

// euclideanPoint is the JSON shape of one Euclidean uncertain point.
type euclideanPoint struct {
	Locs  [][]float64 `json:"locs"`
	Probs []float64   `json:"probs"`
}

// finitePoint is the JSON shape of one finite-space uncertain point.
type finitePoint struct {
	Locs  []int     `json:"locs"`
	Probs []float64 `json:"probs"`
}

// document is the on-disk instance shape.
type document struct {
	Kind   string           `json:"kind"`
	Dim    int              `json:"dim,omitempty"`
	Points []euclideanPoint `json:"points,omitempty"`
	FPts   []finitePoint    `json:"finite_points,omitempty"`
	Metric [][]float64      `json:"metric,omitempty"`
}

// WriteEuclidean writes a Euclidean instance as indented JSON.
func WriteEuclidean(w io.Writer, pts []uncertain.Point[geom.Vec]) error {
	if err := uncertain.ValidateSet(pts); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	doc := document{Kind: KindEuclidean, Dim: pts[0].Locs[0].Dim()}
	for _, p := range pts {
		ep := euclideanPoint{Probs: p.Probs}
		for _, l := range p.Locs {
			ep.Locs = append(ep.Locs, []float64(l))
		}
		doc.Points = append(doc.Points, ep)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// decodeDocument decodes r, which must hold exactly one JSON document
// with only the document's fields: an unknown field (a "candidates" list
// the format has no place for, say) and any data after the document are
// errors, so an instance is never loaded with part of its input ignored.
func decodeDocument(r io.Reader, doc *document) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return fmt.Errorf("dataio: data after the document")
		}
		return fmt.Errorf("dataio: data after the document: %w", err)
	}
	return nil
}

// decodeEuclidean parses the document shape and performs the structural
// checks JSON cannot express (coordinate finiteness, dimension agreement).
// Probability validation is left to the caller's single pass (ValidateSet
// or core.Compile).
func decodeEuclidean(r io.Reader) ([]uncertain.Point[geom.Vec], error) {
	var doc document
	if err := decodeDocument(r, &doc); err != nil {
		return nil, err
	}
	if doc.Kind != KindEuclidean {
		return nil, fmt.Errorf("dataio: kind %q, want %q", doc.Kind, KindEuclidean)
	}
	if len(doc.Points) == 0 {
		return nil, fmt.Errorf("dataio: no points")
	}
	pts := make([]uncertain.Point[geom.Vec], len(doc.Points))
	dim := doc.Dim
	for i, ep := range doc.Points {
		locs := make([]geom.Vec, len(ep.Locs))
		for j, l := range ep.Locs {
			if dim == 0 && len(l) > 0 {
				dim = len(l) // infer from the first location when unspecified
			}
			if dim > 0 && len(l) != dim {
				return nil, fmt.Errorf("dataio: point %d location %d has dim %d, want %d", i, j, len(l), dim)
			}
			locs[j] = geom.Vec(l)
			if !locs[j].IsFinite() {
				return nil, fmt.Errorf("dataio: point %d location %d is not finite", i, j)
			}
		}
		pts[i] = uncertain.Point[geom.Vec]{Locs: locs, Probs: ep.Probs}
	}
	return pts, nil
}

// ReadEuclidean parses and validates a Euclidean instance.
func ReadEuclidean(r io.Reader) ([]uncertain.Point[geom.Vec], error) {
	pts, err := decodeEuclidean(r)
	if err != nil {
		return nil, err
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	return pts, nil
}

// ReadEuclideanCompiled parses a Euclidean instance straight into the
// compiled flat representation: structural decode, then one combined
// validate-prune-flatten pass (core.Compile). The returned Compiled carries
// the memoized per-instance caches every pipeline shares.
func ReadEuclideanCompiled(r io.Reader) (*core.Compiled[geom.Vec], error) {
	pts, err := decodeEuclidean(r)
	if err != nil {
		return nil, err
	}
	c, err := core.Compile[geom.Vec](context.Background(), metricspace.Euclidean{}, pts, nil)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	return c, nil
}

// WriteFinite writes a finite-space instance (matrix plus points).
func WriteFinite(w io.Writer, space *metricspace.Finite, pts []uncertain.Point[int]) error {
	if err := uncertain.ValidateSet(pts); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	doc := document{Kind: KindFinite}
	n := space.N()
	doc.Metric = make([][]float64, n)
	for i := 0; i < n; i++ {
		doc.Metric[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			doc.Metric[i][j] = space.Dist(i, j)
		}
	}
	for _, p := range pts {
		doc.FPts = append(doc.FPts, finitePoint{Locs: p.Locs, Probs: p.Probs})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// decodeFinite parses the document shape, builds the metric space and
// checks vertex ranges; probability validation is left to the caller's
// single pass.
func decodeFinite(r io.Reader) (*metricspace.Finite, []uncertain.Point[int], error) {
	var doc document
	if err := decodeDocument(r, &doc); err != nil {
		return nil, nil, err
	}
	if doc.Kind != KindFinite {
		return nil, nil, fmt.Errorf("dataio: kind %q, want %q", doc.Kind, KindFinite)
	}
	space, err := metricspace.NewFinite(doc.Metric)
	if err != nil {
		return nil, nil, fmt.Errorf("dataio: %w", err)
	}
	if len(doc.FPts) == 0 {
		return nil, nil, fmt.Errorf("dataio: no points")
	}
	pts := make([]uncertain.Point[int], len(doc.FPts))
	for i, fp := range doc.FPts {
		for j, v := range fp.Locs {
			if v < 0 || v >= space.N() {
				return nil, nil, fmt.Errorf("dataio: point %d location %d = vertex %d outside space of %d vertices", i, j, v, space.N())
			}
		}
		pts[i] = uncertain.Point[int]{Locs: fp.Locs, Probs: fp.Probs}
	}
	return space, pts, nil
}

// ReadFinite parses and validates a finite-space instance: the matrix must
// be a valid metric matrix and every location a valid vertex index.
func ReadFinite(r io.Reader) (*metricspace.Finite, []uncertain.Point[int], error) {
	space, pts, err := decodeFinite(r)
	if err != nil {
		return nil, nil, err
	}
	if err := uncertain.ValidateSet(pts); err != nil {
		return nil, nil, fmt.Errorf("dataio: %w", err)
	}
	return space, pts, nil
}

// ReadFiniteCompiled parses a finite-space instance straight into the
// compiled flat representation with all space points as the candidate set
// (mirroring NewFiniteInstance's default); one combined
// validate-prune-flatten pass.
func ReadFiniteCompiled(r io.Reader) (*metricspace.Finite, *core.Compiled[int], error) {
	space, pts, err := decodeFinite(r)
	if err != nil {
		return nil, nil, err
	}
	c, err := core.Compile[int](context.Background(), space, pts, space.Points())
	if err != nil {
		return nil, nil, fmt.Errorf("dataio: %w", err)
	}
	return space, c, nil
}
