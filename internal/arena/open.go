package arena

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metricspace"
	"repro/internal/uncertain"
	"repro/obs"
)

// Options controls Open.
type Options struct {
	// NoMmap forces the portable heap-read backend even where mmap is
	// available (the alloc-count and fuzz tests exercise both).
	NoMmap bool
	// SkipChecksum skips the payload CRC pass (the header CRC is always
	// verified). The structural and semantic validation still runs; use
	// only where the file is trusted and open latency matters more than
	// bit-rot detection.
	SkipChecksum bool
}

// File is an opened snapshot: the validated bytes (mapped or heap-held)
// plus the compiled instance whose arena aliases them. Keep the File alive
// — and unclosed — for as long as the instance is in use.
type File struct {
	kind   int
	size   int64
	data   []byte
	mapped bool

	eu  *core.Compiled[geom.Vec]
	fin *core.Compiled[int]

	closeOnce sync.Once
	closeErr  error
}

// Open validates the snapshot at path and reconstructs its compiled
// instance zero-copy: the arena columns alias the file bytes directly
// (mapped on platforms with mmap support, a word-aligned heap buffer
// otherwise), so open cost is O(validate) — no per-atom decode, no
// recompile. Every rejection wraps one of the typed errors (ErrMagic,
// ErrVersion, ErrEndianness, ErrTruncated, ErrChecksum, ErrLayout,
// ErrCorrupt).
func Open(ctx context.Context, path string, o Options) (*File, error) {
	sp := obs.StartSpan(obs.FromContext(ctx), "store.open")
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer osf.Close()
	st, err := osf.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, size, headerSize)
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("%w: %d bytes exceeds the address space", ErrLayout, size)
	}
	data, isMapped, err := loadBytes(osf, size, o.NoMmap)
	if err != nil {
		return nil, err
	}
	f := &File{size: size, data: data, mapped: isMapped}
	ok := false
	defer func() {
		if !ok {
			f.release()
		}
	}()

	h, payloadCRC, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if err := checkHeader(h); err != nil {
		return nil, err
	}
	stored := h.sec
	total, err := h.layout()
	if err != nil {
		return nil, err
	}
	if stored != h.sec {
		return nil, fmt.Errorf("%w: stored section table differs from the canonical layout", ErrLayout)
	}
	if uint64(size) != total {
		if uint64(size) < total {
			return nil, fmt.Errorf("%w: %d bytes, layout needs %d", ErrTruncated, size, total)
		}
		return nil, fmt.Errorf("%w: %d trailing bytes after the layout's %d", ErrLayout, uint64(size)-total, total)
	}
	if !o.SkipChecksum {
		if got := crc32.Checksum(data[headerSize:], castagnoli); got != payloadCRC {
			return nil, fmt.Errorf("%w: payload CRC %08x, want %08x", ErrChecksum, got, payloadCRC)
		}
	}
	f.kind = int(h.kind)
	switch h.kind {
	case KindEuclidean:
		err = f.buildEuclidean(h)
	default:
		err = f.buildFinite(h)
	}
	if err != nil {
		return nil, err
	}
	if isMapped {
		mapped.Add(size)
	}
	ok = true
	sp.Int("kind", f.kind)
	sp.Int("points", int(h.n))
	sp.Int("atoms", int(h.atoms))
	sp.Int64("bytes", size)
	sp.Int("mmap", boolInt(isMapped))
	sp.End()
	return f, nil
}

// Kind returns KindEuclidean or KindFinite.
func (f *File) Kind() int { return f.kind }

// KindName returns the dataset-kind string ("euclidean" / "finite"),
// matching internal/dataio's vocabulary.
func (f *File) KindName() string {
	if f.kind == KindEuclidean {
		return "euclidean"
	}
	return "finite"
}

// Size returns the snapshot file size in bytes — the resident cost of the
// arena while the File is open.
func (f *File) Size() int64 { return f.size }

// Mapped reports whether the bytes are mmap'd (versus heap-held).
func (f *File) Mapped() bool { return f.mapped }

// Euclidean returns the compiled Euclidean instance; it errors on a
// finite-kind snapshot.
func (f *File) Euclidean() (*core.Compiled[geom.Vec], error) {
	if f.eu == nil {
		return nil, fmt.Errorf("arena: snapshot kind is %s, not euclidean", f.KindName())
	}
	return f.eu, nil
}

// Finite returns the compiled finite-metric instance; it errors on a
// euclidean-kind snapshot.
func (f *File) Finite() (*core.Compiled[int], error) {
	if f.fin == nil {
		return nil, fmt.Errorf("arena: snapshot kind is %s, not finite", f.KindName())
	}
	return f.fin, nil
}

// Close releases the mapping (or heap reference). The compiled instance's
// arena aliases the mapped region, so Close must only be called once no
// instance returned by this File can be used again; long-lived servers
// simply keep snapshots open for the process lifetime. Idempotent.
func (f *File) Close() error {
	f.closeOnce.Do(func() {
		if f.mapped {
			mapped.Add(-f.size)
		}
		f.closeErr = f.release()
		f.eu, f.fin = nil, nil
	})
	return f.closeErr
}

// release frees the byte backing without touching the gauge (Open's error
// path runs before the gauge is bumped).
func (f *File) release() error {
	data := f.data
	f.data = nil
	if !f.mapped || data == nil {
		return nil
	}
	return unmapFile(data)
}

// loadBytes materializes the file's bytes: mmap where supported (unless
// disabled), otherwise a read into a word-aligned heap buffer — alignment
// the zero-copy reinterpretation requires and a plain []byte allocation
// does not guarantee.
func loadBytes(f *os.File, size int64, noMmap bool) (data []byte, isMapped bool, err error) {
	if !noMmap && mmapSupported {
		if data, err = mapFile(f, size); err == nil {
			return data, true, nil
		}
		// Fall through to the portable read on any mapping failure.
	}
	words := make([]uint64, (size+7)/8)
	data = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(f, data); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, false, fmt.Errorf("%w: file shrank while reading", ErrTruncated)
		}
		return nil, false, err
	}
	return data, false, nil
}

// checkHeader validates the header's counts and flags against the format's
// semantic invariants before any layout or column work trusts them.
func checkHeader(h *header) error {
	if h.kind != KindEuclidean && h.kind != KindFinite {
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, h.kind)
	}
	if h.flags&^uint32(flagCands|flagAllLocsInline) != 0 {
		return fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, h.flags)
	}
	for _, c := range [...]struct {
		name string
		v    uint64
	}{{"n", h.n}, {"atoms", h.atoms}, {"dim", h.dim}, {"maxZ", h.maxZ},
		{"nCands", h.nCands}, {"nAll", h.nAll}, {"spaceN", h.spaceN}} {
		if c.v > uint64(math.MaxInt)/8 {
			return fmt.Errorf("%w: %s = %d is not addressable", ErrCorrupt, c.name, c.v)
		}
	}
	if h.n < 1 {
		return fmt.Errorf("%w: zero points", ErrCorrupt)
	}
	if h.atoms < h.n {
		return fmt.Errorf("%w: %d atoms over %d points", ErrCorrupt, h.atoms, h.n)
	}
	if h.maxZ < 1 || h.maxZ > h.atoms {
		return fmt.Errorf("%w: maxZ = %d with %d atoms", ErrCorrupt, h.maxZ, h.atoms)
	}
	if h.flags&flagCands == 0 && h.nCands != 0 {
		return fmt.Errorf("%w: nCands = %d without the candidate flag", ErrCorrupt, h.nCands)
	}
	if h.flags&flagCands != 0 && h.nCands < 1 {
		return fmt.Errorf("%w: candidate flag with zero candidates", ErrCorrupt)
	}
	if h.flags&flagAllLocsInline != 0 && h.nAll != 0 {
		return fmt.Errorf("%w: nAll = %d with the inline flag", ErrCorrupt, h.nAll)
	}
	if h.flags&flagAllLocsInline == 0 && h.nAll < h.atoms {
		return fmt.Errorf("%w: nAll = %d below the %d-atom arena", ErrCorrupt, h.nAll, h.atoms)
	}
	switch h.kind {
	case KindEuclidean:
		if h.dim < 1 {
			return fmt.Errorf("%w: euclidean snapshot with dimension %d", ErrCorrupt, h.dim)
		}
		if h.spaceN != 0 {
			return fmt.Errorf("%w: euclidean snapshot with spaceN = %d", ErrCorrupt, h.spaceN)
		}
	case KindFinite:
		if h.dim != 0 {
			return fmt.Errorf("%w: finite snapshot with dimension %d", ErrCorrupt, h.dim)
		}
		if h.spaceN < 1 {
			return fmt.Errorf("%w: finite snapshot with no vertices", ErrCorrupt)
		}
	}
	return nil
}

// sectionBytes returns the section's raw bytes.
func (f *File) sectionBytes(h *header, sec int) []byte {
	s := h.sec[sec]
	return f.data[s.off : s.off+s.len : s.off+s.len]
}

// sharedColumns aliases and validates the kind-independent columns
// (probs, offsets, ptIdx): offsets strictly increasing from 0 to atoms
// with maxZ exact, ptIdx the inverse of offsets, probs positive, finite
// and summing to 1 per point within uncertain's tolerance.
func (f *File) sharedColumns(h *header) (probs []float64, offsets, ptIdx []int32, err error) {
	atoms, n := int(h.atoms), int(h.n)
	if probs, err = f64s(f.sectionBytes(h, secProbs), atoms, "probs"); err != nil {
		return nil, nil, nil, err
	}
	if offsets, err = i32s(f.sectionBytes(h, secOffsets), n+1, "offsets"); err != nil {
		return nil, nil, nil, err
	}
	if ptIdx, err = i32s(f.sectionBytes(h, secPtIdx), atoms, "ptIdx"); err != nil {
		return nil, nil, nil, err
	}
	if offsets[0] != 0 || int(offsets[n]) != atoms {
		return nil, nil, nil, fmt.Errorf("%w: offsets span [%d,%d], want [0,%d]", ErrCorrupt, offsets[0], offsets[n], atoms)
	}
	maxZ := 0
	for i := 0; i < n; i++ {
		if offsets[i] >= offsets[i+1] {
			return nil, nil, nil, fmt.Errorf("%w: offsets not strictly increasing at point %d", ErrCorrupt, i)
		}
		if z := int(offsets[i+1] - offsets[i]); z > maxZ {
			maxZ = z
		}
		sum := 0.0
		for a := offsets[i]; a < offsets[i+1]; a++ {
			if ptIdx[a] != int32(i) {
				return nil, nil, nil, fmt.Errorf("%w: ptIdx[%d] = %d inside point %d", ErrCorrupt, a, ptIdx[a], i)
			}
			p := probs[a]
			if !(p > 0) || p > 1 || math.IsInf(p, 0) || math.IsNaN(p) {
				return nil, nil, nil, fmt.Errorf("%w: probability %v at atom %d", ErrCorrupt, p, a)
			}
			sum += p
		}
		if math.Abs(sum-1) > uncertain.ProbSumTol {
			return nil, nil, nil, fmt.Errorf("%w: point %d probabilities sum to %v", ErrCorrupt, i, sum)
		}
	}
	if maxZ != int(h.maxZ) {
		return nil, nil, nil, fmt.Errorf("%w: header maxZ %d, columns say %d", ErrCorrupt, h.maxZ, maxZ)
	}
	return probs, offsets, ptIdx, nil
}

// buildEuclidean assembles the Euclidean instance: the flat coordinate
// column is aliased once — it doubles as the instance's coordinate column
// xy — and vector headers are sliced into it, a constant number of
// allocations regardless of atom count.
func (f *File) buildEuclidean(h *header) error {
	probs, offsets, ptIdx, err := f.sharedColumns(h)
	if err != nil {
		return err
	}
	dim := int(h.dim)
	locs, xy, err := f.vecColumn(h, secLocs, int(h.atoms), dim, "locs")
	if err != nil {
		return err
	}
	allLocs := locs
	if h.flags&flagAllLocsInline == 0 {
		if allLocs, _, err = f.vecColumn(h, secAllLocs, int(h.nAll), dim, "allLocs"); err != nil {
			return err
		}
	}
	var cands []geom.Vec
	if h.flags&flagCands != 0 {
		if cands, _, err = f.vecColumn(h, secCands, int(h.nCands), dim, "cands"); err != nil {
			return err
		}
	}
	c, err := core.FromArena[geom.Vec](metricspace.Euclidean{}, locs, xy, probs, offsets, ptIdx, allLocs, cands, dim, int(h.maxZ))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	f.eu = c
	return nil
}

// vecColumn aliases a coordinate section as count dim-dimensional vectors,
// rejecting non-finite coordinates. It also returns the section itself, the
// flat column the vectors alias.
func (f *File) vecColumn(h *header, sec, count, dim int, what string) ([]geom.Vec, []float64, error) {
	coords, err := f64s(f.sectionBytes(h, sec), count*dim, what)
	if err != nil {
		return nil, nil, err
	}
	for i, x := range coords {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return nil, nil, fmt.Errorf("%w: non-finite coordinate %v in %s row %d", ErrCorrupt, x, what, i/dim)
		}
	}
	out := make([]geom.Vec, count)
	for i := range out {
		out[i] = geom.Vec(coords[i*dim : (i+1)*dim : (i+1)*dim])
	}
	return out, coords, nil
}

// buildFinite assembles the finite-metric instance: vertex columns are
// aliased in place on 64-bit hosts, and the distance matrix is validated
// by metricspace.NewFinite over row views into the mapped bytes.
func (f *File) buildFinite(h *header) error {
	probs, offsets, ptIdx, err := f.sharedColumns(h)
	if err != nil {
		return err
	}
	spaceN := int(h.spaceN)
	locs, err := f.vertexColumn(h, secLocs, int(h.atoms), spaceN, "locs")
	if err != nil {
		return err
	}
	allLocs := locs
	if h.flags&flagAllLocsInline == 0 {
		if allLocs, err = f.vertexColumn(h, secAllLocs, int(h.nAll), spaceN, "allLocs"); err != nil {
			return err
		}
	}
	var cands []int
	if h.flags&flagCands != 0 {
		if cands, err = f.vertexColumn(h, secCands, int(h.nCands), spaceN, "cands"); err != nil {
			return err
		}
	}
	matrix, err := f64s(f.sectionBytes(h, secMetric), spaceN*spaceN, "metric")
	if err != nil {
		return err
	}
	rows := make([][]float64, spaceN)
	for i := range rows {
		rows[i] = matrix[i*spaceN : (i+1)*spaceN : (i+1)*spaceN]
	}
	space, err := metricspace.NewFinite(rows)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	c, err := core.FromArena[int](space, locs, nil, probs, offsets, ptIdx, allLocs, cands, 0, int(h.maxZ))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	f.fin = c
	return nil
}

// vertexColumn aliases an int64 vertex section as []int — in place on
// 64-bit hosts (int and int64 share layout), copy-converted on 32-bit —
// rejecting vertices outside [0, spaceN).
func (f *File) vertexColumn(h *header, sec, count, spaceN int, what string) ([]int, error) {
	vals, err := i64s(f.sectionBytes(h, sec), count, what)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		if v < 0 || v >= int64(spaceN) {
			return nil, fmt.Errorf("%w: %s[%d] = %d outside the %d-vertex space", ErrCorrupt, what, i, v, spaceN)
		}
	}
	if strconv.IntSize == 64 {
		if count == 0 {
			return nil, nil
		}
		return unsafe.Slice((*int)(unsafe.Pointer(&vals[0])), count), nil
	}
	out := make([]int, count)
	for i, v := range vals {
		out[i] = int(v)
	}
	return out, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
