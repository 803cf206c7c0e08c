package arena

import (
	"bufio"
	"context"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/obs"
)

// WriteEuclidean freezes a compiled Euclidean (L2) instance as a snapshot
// at path, returning the file size. The write is atomic: bytes stream into
// path+".tmp" and are renamed over path only after a successful sync, so a
// crashed or failed write never leaves a half-snapshot where a warm-start
// scan would find it. Only the arena (flat atoms, offsets, candidate sets)
// is frozen; the memoized caches rebuild lazily after Open, bit-identically.
func WriteEuclidean(ctx context.Context, path string, c *core.Compiled[geom.Vec]) (int64, error) {
	if c == nil {
		return 0, fmt.Errorf("arena: nil compiled instance")
	}
	if _, ok := c.Space().(metricspace.Euclidean); !ok {
		return 0, fmt.Errorf("arena: only the Euclidean L2 space is serializable (got %T)", c.Space())
	}
	locs, probs, offsets, ptIdx := c.FlatAtoms()
	h := &header{
		version: Version,
		kind:    KindEuclidean,
		n:       uint64(c.NumPoints()),
		atoms:   uint64(c.NumAtoms()),
		dim:     uint64(c.Dim()),
		maxZ:    uint64(c.MaxZ()),
	}
	cands := c.Candidates()
	allLocs := locationSections(h, locs, cands, c.CandidatesOrLocations())
	dim := c.Dim()
	return writeSnapshot(ctx, path, h, func(sw *sectionWriter) error {
		if err := sw.f64(secLocs, c.Coords()); err != nil {
			return err
		}
		if err := sw.f64(secProbs, probs); err != nil {
			return err
		}
		if err := sw.i32(secOffsets, offsets); err != nil {
			return err
		}
		if err := sw.i32(secPtIdx, ptIdx); err != nil {
			return err
		}
		if err := sw.vecs(secAllLocs, allLocs, dim); err != nil {
			return err
		}
		return sw.vecs(secCands, cands, dim)
	})
}

// WriteFinite freezes a compiled finite-metric instance — including its
// full distance matrix, so the snapshot is self-contained — as a snapshot
// at path. See WriteEuclidean for the atomicity contract.
func WriteFinite(ctx context.Context, path string, c *core.Compiled[int]) (int64, error) {
	if c == nil {
		return 0, fmt.Errorf("arena: nil compiled instance")
	}
	space, ok := c.Space().(*metricspace.Finite)
	if !ok {
		return 0, fmt.Errorf("arena: only explicit finite-matrix spaces are serializable (got %T)", c.Space())
	}
	locs, probs, offsets, ptIdx := c.FlatAtoms()
	h := &header{
		version: Version,
		kind:    KindFinite,
		n:       uint64(c.NumPoints()),
		atoms:   uint64(c.NumAtoms()),
		maxZ:    uint64(c.MaxZ()),
		spaceN:  uint64(space.N()),
	}
	cands := c.Candidates()
	allLocs := locationSections(h, locs, cands, c.CandidatesOrLocations())
	return writeSnapshot(ctx, path, h, func(sw *sectionWriter) error {
		if err := sw.ints(secLocs, locs); err != nil {
			return err
		}
		if err := sw.f64(secProbs, probs); err != nil {
			return err
		}
		if err := sw.i32(secOffsets, offsets); err != nil {
			return err
		}
		if err := sw.i32(secPtIdx, ptIdx); err != nil {
			return err
		}
		if err := sw.ints(secAllLocs, allLocs); err != nil {
			return err
		}
		if err := sw.ints(secCands, cands); err != nil {
			return err
		}
		return sw.metric(space)
	})
}

// locationSections fills the header's candidate/allLocs accounting and
// returns the allLocs slice to persist (nil when it aliases the arena).
// With an explicit candidate set the all-locations default is never
// consulted (CandidatesOrLocations prefers the explicit set), so it is not
// stored; without one, the default is stored only when pruning made it
// diverge from the arena column.
func locationSections[P any](h *header, locs, cands, candsOrLocs []P) (allLocs []P) {
	if len(cands) > 0 {
		h.flags |= flagCands | flagAllLocsInline
		h.nCands = uint64(len(cands))
		return nil
	}
	if sameView(candsOrLocs, locs) {
		h.flags |= flagAllLocsInline
		return nil
	}
	h.nAll = uint64(len(candsOrLocs))
	return candsOrLocs
}

// sameView reports whether a and b are the identical slice view.
func sameView[P any](a, b []P) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// writeSnapshot owns the file mechanics shared by both kinds: layout, the
// temp-file + rename atomicity, CRC accumulation, and the header patch.
func writeSnapshot(ctx context.Context, path string, h *header, emit func(*sectionWriter) error) (int64, error) {
	total, err := h.layout()
	if err != nil {
		return 0, err
	}
	sp := obs.StartSpan(obs.FromContext(ctx), "store.write")
	sp.Int("points", int(h.n))
	sp.Int("atoms", int(h.atoms))
	sp.Int("kind", int(h.kind))
	sp.Int64("bytes", int64(total))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	if _, err := f.Write(make([]byte, headerSize)); err != nil {
		return 0, err
	}
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(f, 1<<16)
	sw := &sectionWriter{h: h, w: io.MultiWriter(bw, crc), crc: crc, written: headerSize}
	if err := emit(sw); err != nil {
		return 0, err
	}
	if sw.written != total {
		return 0, fmt.Errorf("arena: wrote %d payload bytes, layout says %d", sw.written, total)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if _, err := f.WriteAt(h.encode(crc.Sum32()), 0); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		return 0, err
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// Make the rename durable too, best-effort: fsync the directory.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	sp.End()
	return int64(total), nil
}

// sectionWriter streams section payloads in file order, padding each to an
// 8-byte boundary and asserting every section lands exactly where the
// layout placed it.
type sectionWriter struct {
	h       *header
	w       io.Writer
	crc     hash.Hash32
	written uint64
}

var zeroPad [8]byte

func (sw *sectionWriter) begin(sec int) error {
	if sw.written != sw.h.sec[sec].off {
		return fmt.Errorf("arena: section %d starts at %d, layout says %d", sec, sw.written, sw.h.sec[sec].off)
	}
	return nil
}

func (sw *sectionWriter) raw(sec int, b []byte) error {
	if err := sw.begin(sec); err != nil {
		return err
	}
	if uint64(len(b)) != sw.h.sec[sec].len {
		return fmt.Errorf("arena: section %d is %d bytes, layout says %d", sec, len(b), sw.h.sec[sec].len)
	}
	if _, err := sw.w.Write(b); err != nil {
		return err
	}
	sw.written += uint64(len(b))
	return sw.pad()
}

func (sw *sectionWriter) pad() error {
	if p := pad8(sw.written) - sw.written; p > 0 {
		if _, err := sw.w.Write(zeroPad[:p]); err != nil {
			return err
		}
		sw.written += p
	}
	return nil
}

// f64 writes a float64 column by reinterpreting the slice in place (the
// format is native little-endian by construction).
func (sw *sectionWriter) f64(sec int, v []float64) error {
	return sw.raw(sec, f64Bytes(v))
}

// i32 writes an int32 column.
func (sw *sectionWriter) i32(sec int, v []int32) error {
	var b []byte
	if len(v) > 0 {
		b = unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
	}
	return sw.raw(sec, b)
}

// ints writes an []int column as int64 values.
func (sw *sectionWriter) ints(sec int, v []int) error {
	w := make([]int64, len(v))
	for i, x := range v {
		w[i] = int64(x)
	}
	var b []byte
	if len(w) > 0 {
		b = unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w))
	}
	return sw.raw(sec, b)
}

// vecs writes a coordinate-row column: every vector must carry the
// compile-time common dimension (Compile proved it; this guards the codec
// against an inconsistent caller rather than trusting it).
func (sw *sectionWriter) vecs(sec int, v []geom.Vec, dim int) error {
	if err := sw.begin(sec); err != nil {
		return err
	}
	want := sw.h.sec[sec].len
	var n uint64
	for i, row := range v {
		if len(row) != dim {
			return fmt.Errorf("arena: location %d has dimension %d, want %d", i, len(row), dim)
		}
		b := f64Bytes(row)
		if _, err := sw.w.Write(b); err != nil {
			return err
		}
		n += uint64(len(b))
	}
	if n != want {
		return fmt.Errorf("arena: section %d is %d bytes, layout says %d", sec, n, want)
	}
	sw.written += n
	return sw.pad()
}

// metric writes the finite space's full distance matrix row by row.
func (sw *sectionWriter) metric(space *metricspace.Finite) error {
	if err := sw.begin(secMetric); err != nil {
		return err
	}
	n := space.N()
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			row[j] = space.Dist(i, j)
		}
		if _, err := sw.w.Write(f64Bytes(row)); err != nil {
			return err
		}
	}
	sw.written += uint64(n) * uint64(n) * 8
	return sw.pad()
}

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}
