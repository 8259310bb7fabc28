// Package frame is the columnar data plane shared by every layer of the
// reproduction: dataset generation emits frames, the feature pipeline
// transforms frames, the learners fit on frames, and serving predicts from
// frame rows. A Frame stores a rectangular float64 matrix in one
// contiguous column-major backing array, so the hot loops the paper
// stresses — random-forest split finding over ~100s of engineered
// features (§3.3) and repeated CV refits (§4) — scan contiguous memory
// instead of chasing per-row pointers.
//
// Layout and aliasing rules:
//
//   - The backing array holds stride·cols values; column j of a view
//     occupies data[j·stride+off : j·stride+off+rows]. For a frame that
//     owns its backing, off = 0 and stride ≥ rows.
//   - Col returns the live backing segment: writes through it are visible
//     to every view sharing the backing, and vice versa. Transforms treat
//     input frames as read-only.
//   - RowRange and RunView return zero-copy views that alias the parent's
//     backing, labels and spans. Views cannot append.
//   - Append… is only legal on owning frames and may reallocate the
//     backing when capacity is exhausted; views minted before the
//     reallocation keep reading the old backing (same semantics as Go
//     slice growth).
//
// Rows are grouped into contiguous runs (the paper's cross-validation
// groups, §3.4) described by Spans; labels are optional and aliased, not
// copied, across views and column selections — they are never mutated by
// transforms.
//
// Out-of-core frames: a Frame may instead be backed by a chunked Store
// (store.go) — fixed row-count column-major chunks, in memory or spilled
// to disk. Chunk-backed frames are read-only; Col/Set/Append panic or
// error on them, while At/Row/RowRange/RunView work transparently and
// ForEachChunk exposes each chunk as a zero-copy dense sub-frame (the
// chunk-iterating row-range API the learners and pipeline stream over).
// On a dense frame (store == nil, the only kind hot paths ever see)
// every accessor takes exactly the pre-seam code path.
package frame

import (
	"fmt"
	"math"
	"os"
)

// Span describes one run: rows [Start, End) of the frame belong to the
// run with identifier ID.
type Span struct {
	ID         int
	Start, End int
}

// Frame is a dense column-major matrix over a Schema, with run spans and
// optional per-row labels.
type Frame struct {
	schema Schema
	data   []float64
	stride int // backing row capacity per column
	off    int // first backing row of this view
	rows   int
	spans  []Span
	labels []int // nil, or exactly rows entries aligned with the view
	owned  bool  // false for views; only owners may append
	store  Store // nil for dense frames; the chunked backing otherwise
}

// NewDense returns an exact-size owning frame with rows zeroed rows, the
// given spans (aliased) and labels (aliased, may be nil). It is the
// constructor transforms use: allocate once, fill columns in place.
func NewDense(schema Schema, rows int, spans []Span, labels []int) *Frame {
	if rows < 0 {
		panic(fmt.Sprintf("frame: negative row count %d", rows))
	}
	if labels != nil && len(labels) != rows {
		panic(fmt.Sprintf("frame: %d labels for %d rows", len(labels), rows))
	}
	return &Frame{
		schema: schema,
		data:   make([]float64, rows*len(schema)),
		stride: rows,
		rows:   rows,
		spans:  spans,
		labels: labels,
		owned:  true,
	}
}

// New returns an empty owning frame with capacity for capRows rows.
func New(schema Schema, capRows int) *Frame {
	if capRows < 0 {
		capRows = 0
	}
	return &Frame{
		schema: schema,
		data:   make([]float64, capRows*len(schema)),
		stride: capRows,
		owned:  true,
	}
}

// Derive returns an exact-size owning frame with a new schema but this
// frame's row count, spans and labels (both aliased). The data is zeroed.
func (f *Frame) Derive(schema Schema) *Frame {
	return NewDense(schema, f.rows, f.spans, f.labels)
}

// Schema returns the column metadata. Callers must not mutate it.
func (f *Frame) Schema() Schema { return f.schema }

// Rows returns the number of rows in this view.
func (f *Frame) Rows() int { return f.rows }

// NumCols returns the schema width.
func (f *Frame) NumCols() int { return len(f.schema) }

// Col returns the zero-copy contiguous backing segment of column j.
// Writing through it mutates every view sharing the backing. A
// chunk-backed frame has no whole-column slab; iterate ForEachChunk (each
// chunk's columns are contiguous) or Materialize first.
func (f *Frame) Col(j int) []float64 {
	if f.store != nil {
		panic("frame: Col on a chunk-backed frame (iterate ForEachChunk or call Materialize)")
	}
	base := j*f.stride + f.off
	return f.data[base : base+f.rows : base+f.rows]
}

// Cols returns every column's Col segment in schema order, reusing dst's
// capacity: the column-major batch form the tree walks read.
func (f *Frame) Cols(dst [][]float64) [][]float64 {
	if cap(dst) < len(f.schema) {
		dst = make([][]float64, 0, len(f.schema))
	}
	dst = dst[:0]
	for j := range f.schema {
		dst = append(dst, f.Col(j))
	}
	return dst
}

// At returns the value at row i, column j. On a chunk-backed frame this
// routes through the store (correct but per-cell; chunk iteration is the
// fast path).
func (f *Frame) At(i, j int) float64 {
	if f.store != nil {
		return f.storeAt(i, j)
	}
	return f.data[j*f.stride+f.off+i]
}

// storeAt is the chunk-backed cell read, kept out of At so the dense
// path stays inlinable.
func (f *Frame) storeAt(i, j int) float64 {
	cr := f.store.ChunkRows()
	g := f.off + i
	k := g / cr
	data, err := f.store.ChunkData(k)
	if err != nil {
		panic(fmt.Sprintf("frame: chunk %d read failed: %v", k, err))
	}
	return data[j*f.store.ChunkLen(k)+g%cr]
}

// Set assigns the value at row i, column j. Chunk-backed frames are
// read-only.
func (f *Frame) Set(i, j int, v float64) {
	if f.store != nil {
		panic("frame: Set on a read-only chunk-backed frame")
	}
	f.data[j*f.stride+f.off+i] = v
}

// Row gathers row i into dst (reused when cap suffices) and returns it.
func (f *Frame) Row(i int, dst []float64) []float64 {
	d := len(f.schema)
	if cap(dst) < d {
		dst = make([]float64, d)
	}
	dst = dst[:d]
	if f.store != nil {
		cr := f.store.ChunkRows()
		g := f.off + i
		k := g / cr
		data, err := f.store.ChunkData(k)
		if err != nil {
			panic(fmt.Sprintf("frame: chunk %d read failed: %v", k, err))
		}
		cl := f.store.ChunkLen(k)
		local := g % cr
		for j := 0; j < d; j++ {
			dst[j] = data[j*cl+local]
		}
		return dst
	}
	for j := 0; j < d; j++ {
		dst[j] = f.data[j*f.stride+f.off+i]
	}
	return dst
}

// Labels returns the per-row labels (nil when unlabeled). The slice is
// aliased, not copied; it must be treated as read-only.
func (f *Frame) Labels() []int { return f.labels }

// Spans returns the run spans of this view. Read-only.
func (f *Frame) Spans() []Span { return f.spans }

// NumRuns returns the number of run spans.
func (f *Frame) NumRuns() int { return len(f.spans) }

// GroupIDs materializes the per-row run ID vector (the grouped-CV input).
func (f *Frame) GroupIDs() []int {
	out := make([]int, f.rows)
	for _, s := range f.spans {
		for i := s.Start; i < s.End; i++ {
			out[i] = s.ID
		}
	}
	return out
}

// RowRange returns a zero-copy view of rows [lo, hi): it shares the
// backing array and labels, with spans clipped to the range (span Start/End
// re-expressed relative to the view).
func (f *Frame) RowRange(lo, hi int) *Frame {
	if lo < 0 || hi < lo || hi > f.rows {
		panic(fmt.Sprintf("frame: row range [%d,%d) out of bounds (rows=%d)", lo, hi, f.rows))
	}
	v := &Frame{
		schema: f.schema,
		data:   f.data,
		stride: f.stride,
		off:    f.off + lo,
		rows:   hi - lo,
		store:  f.store,
	}
	if f.labels != nil {
		v.labels = f.labels[lo:hi]
	}
	v.spans = clipSpans(f.spans, lo, hi)
	return v
}

// clipSpans intersects spans with [lo, hi) and re-expresses them
// relative to lo.
func clipSpans(spans []Span, lo, hi int) []Span {
	var out []Span
	if len(spans) > 0 {
		out = make([]Span, 0, len(spans))
	}
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			out = append(out, Span{ID: s.ID, Start: a - lo, End: b - lo})
		}
	}
	return out
}

// RunView returns the zero-copy view of the k-th run span.
func (f *Frame) RunView(k int) *Frame {
	s := f.spans[k]
	return f.RowRange(s.Start, s.End)
}

// Chunked reports whether this frame (or the frame it is a view of) is
// backed by a chunked store rather than one dense slab.
func (f *Frame) Chunked() bool { return f.store != nil }

// ChunkRows returns the chunk height of a chunk-backed frame, 0 for a
// dense one — the geometry hint derived frames inherit.
func (f *Frame) ChunkRows() int {
	if f.store == nil {
		return 0
	}
	return f.store.ChunkRows()
}

// NumChunks returns the backing store's chunk count, 0 for a dense frame.
func (f *Frame) NumChunks() int {
	if f.store == nil {
		return 0
	}
	return f.store.NumChunks()
}

// SpillDir returns the on-disk spill directory backing this frame, or ""
// for dense and in-memory-chunked frames.
func (f *Frame) SpillDir() string {
	if s, ok := f.store.(*spillStore); ok {
		return s.dir
	}
	return ""
}

// ForEachChunk is the chunk-iterating row-range API: it calls fn once
// per chunk intersecting this view, in row order, with base the view-
// relative row index of the chunk's first row and ch a zero-copy *dense*
// sub-frame of that chunk (contiguous columns, clipped spans, aliased
// labels). On a dense frame it degrades to a single fn(0, f) call with
// no copying at all, so chunk-iterating consumers pay nothing when the
// data is in memory. Iteration stops at the first error (fn's or the
// store's).
func (f *Frame) ForEachChunk(fn func(base int, ch *Frame) error) error {
	if f.store == nil {
		return fn(0, f)
	}
	cr := f.store.ChunkRows()
	glo, ghi := f.off, f.off+f.rows
	if glo == ghi {
		return nil
	}
	for k := glo / cr; k*cr < ghi; k++ {
		data, err := f.store.ChunkData(k)
		if err != nil {
			return err
		}
		cl := f.store.ChunkLen(k)
		lo, hi := k*cr, k*cr+cl
		if lo < glo {
			lo = glo
		}
		if hi > ghi {
			hi = ghi
		}
		ch := &Frame{
			schema: f.schema,
			data:   data,
			stride: cl,
			off:    lo - k*cr,
			rows:   hi - lo,
			spans:  clipSpans(f.spans, lo-glo, hi-glo),
		}
		if f.labels != nil {
			ch.labels = f.labels[lo-glo : hi-glo]
		}
		if err := fn(lo-glo, ch); err != nil {
			return err
		}
	}
	return nil
}

// Materialize copies a chunk-backed frame (or view) into a fresh dense
// owning frame with byte-identical contents — the escape hatch for
// consumers that need whole contiguous columns. Spans are copied, labels
// aliased (same contract as transforms). Dense frames return themselves
// unchanged. Panics if the store fails mid-read: a half-materialized
// frame is not a recoverable state for the callers on this path.
func (f *Frame) Materialize() *Frame {
	if f.store == nil {
		return f
	}
	out := NewDense(f.schema, f.rows, cloneSpans(f.spans), f.labels)
	err := f.ForEachChunk(func(base int, ch *Frame) error {
		for j := range f.schema {
			copy(out.Col(j)[base:base+ch.rows], ch.Col(j))
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("frame: materialize: %v", err))
	}
	return out
}

// DenseView returns the frame's rows as a dense frame for read-only use:
// a dense frame is returned as is, a chunk-backed view that lies inside
// one chunk becomes a zero-copy view of that chunk (valid until the store
// is closed), and only a view that crosses a chunk boundary is copied,
// by Materialize. Callers that need to own the result use Materialize or
// Clone.
func (f *Frame) DenseView() *Frame {
	if f.store == nil {
		return f
	}
	cr := f.store.ChunkRows()
	if f.rows == 0 || f.off/cr != (f.off+f.rows-1)/cr {
		return f.Materialize()
	}
	var v *Frame
	if err := f.ForEachChunk(func(_ int, ch *Frame) error { v = ch; return nil }); err != nil {
		panic(fmt.Sprintf("frame: dense view: %v", err))
	}
	return v
}

// Close releases a chunk-backed frame's store (unmapping chunks,
// dropping caches); on-disk chunk files are left in place. A no-op for
// dense frames and a frame may not be used after Close.
func (f *Frame) Close() error {
	if f.store == nil {
		return nil
	}
	return f.store.Close()
}

// Discard closes a chunk-backed frame and deletes its spill directory.
// It is for frames whose storage the caller owns — generation temp dirs
// and chunked pipeline intermediates — never for a user-supplied corpus
// directory. A no-op for dense frames.
func (f *Frame) Discard() error {
	if f.store == nil {
		return nil
	}
	dir := f.SpillDir()
	err := f.store.Close()
	if dir != "" {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}
	return err
}

// grow reallocates the backing so at least need more rows fit.
func (f *Frame) grow(need int) {
	want := f.rows + need
	if f.stride >= want {
		return
	}
	ns := 2 * f.stride
	if ns < want {
		ns = want
	}
	if ns < 64 {
		ns = 64
	}
	nd := make([]float64, ns*len(f.schema))
	for j := range f.schema {
		copy(nd[j*ns:j*ns+f.rows], f.data[j*f.stride:j*f.stride+f.rows])
	}
	f.data, f.stride = nd, ns
}

// appendRow writes vals as a new row, extending the trailing span when the
// run ID matches and opening a new span otherwise.
func (f *Frame) appendRow(runID int, vals []float64) error {
	if !f.owned {
		return fmt.Errorf("frame: append on a view")
	}
	if len(vals) != len(f.schema) {
		return fmt.Errorf("frame: append row has %d values, schema has %d", len(vals), len(f.schema))
	}
	f.grow(1)
	i := f.rows
	for j, v := range vals {
		f.data[j*f.stride+i] = v
	}
	f.rows++
	if n := len(f.spans); n > 0 && f.spans[n-1].ID == runID && f.spans[n-1].End == i {
		f.spans[n-1].End = i + 1
	} else {
		f.spans = append(f.spans, Span{ID: runID, Start: i, End: i + 1})
	}
	return nil
}

// Append adds an unlabeled row to run runID (streaming ingest path).
func (f *Frame) Append(runID int, vals []float64) error {
	if f.labels != nil {
		return fmt.Errorf("frame: unlabeled append on a labeled frame")
	}
	return f.appendRow(runID, vals)
}

// AppendLabeled adds a labeled row to run runID.
func (f *Frame) AppendLabeled(runID int, vals []float64, label int) error {
	if f.labels == nil && f.rows > 0 {
		return fmt.Errorf("frame: labeled append on an unlabeled frame")
	}
	if err := f.appendRow(runID, vals); err != nil {
		return err
	}
	f.labels = append(f.labels, label)
	return nil
}

// SelectColumns returns a new owning frame keeping the given column
// indices in the given order. Column data is copied (one contiguous copy
// per kept column); spans are copied and labels aliased.
func (f *Frame) SelectColumns(keep []int) (*Frame, error) {
	schema := make(Schema, len(keep))
	for i, k := range keep {
		if k < 0 || k >= len(f.schema) {
			return nil, fmt.Errorf("frame: select column %d out of range (%d cols)", k, len(f.schema))
		}
		schema[i] = f.schema[k]
	}
	out := NewDense(schema, f.rows, cloneSpans(f.spans), f.labels)
	if f.store != nil {
		err := f.ForEachChunk(func(base int, ch *Frame) error {
			for i, k := range keep {
				copy(out.Col(i)[base:base+ch.rows], ch.Col(k))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	for i, k := range keep {
		copy(out.Col(i), f.Col(k))
	}
	return out, nil
}

// SelectRows gathers the given row indices into a new owning frame. The
// result carries the gathered labels and a single synthetic span (run
// structure is not preserved across an arbitrary gather).
func (f *Frame) SelectRows(idx []int) *Frame {
	if f.store != nil {
		// Arbitrary gathers over a chunked frame would touch chunks in
		// index order; this adapter path is small-subset only, so one
		// dense copy is simpler and correct.
		return f.Materialize().SelectRows(idx)
	}
	out := NewDense(f.schema, len(idx), []Span{{ID: 0, Start: 0, End: len(idx)}}, nil)
	for j := 0; j < len(f.schema); j++ {
		src := f.Col(j)
		dst := out.Col(j)
		for p, i := range idx {
			dst[p] = src[i]
		}
	}
	if f.labels != nil {
		lab := make([]int, len(idx))
		for p, i := range idx {
			lab[p] = f.labels[i]
		}
		out.labels = lab
	}
	return out
}

// Clone deep-copies the view into a fresh dense owning frame (labels and
// spans included). On a view, exactly the view's rows are copied: the
// result's backing is rows·cols values (len == cap per column), labels
// and spans are the view-relative ones — nothing of the parent outside
// the view leaks into the clone. Chunk-backed frames clone to dense.
func (f *Frame) Clone() *Frame {
	var lab []int
	if f.labels != nil {
		lab = append([]int(nil), f.labels...)
	}
	if f.store != nil {
		out := f.Materialize()
		out.schema = f.schema.Clone()
		out.labels = lab
		return out
	}
	out := NewDense(f.schema.Clone(), f.rows, cloneSpans(f.spans), lab)
	for j := range f.schema {
		copy(out.Col(j), f.Col(j))
	}
	return out
}

// MaterializeRows gathers the frame into row-major [][]float64 slices
// (one backing allocation) for the row-oriented adapter paths.
func (f *Frame) MaterializeRows() [][]float64 {
	d := len(f.schema)
	flat := make([]float64, f.rows*d)
	rows := make([][]float64, f.rows)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	if f.store != nil {
		err := f.ForEachChunk(func(base int, ch *Frame) error {
			for j := 0; j < d; j++ {
				col := ch.Col(j)
				for i, v := range col {
					rows[base+i][j] = v
				}
			}
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("frame: materialize rows: %v", err))
		}
		return rows
	}
	for j := 0; j < d; j++ {
		col := f.Col(j)
		for i, v := range col {
			rows[i][j] = v
		}
	}
	return rows
}

// CheckFinite rejects NaN and ±Inf values, naming the first offending
// cell. It is the single data-hygiene gate at the frame boundary: every
// learner's frame-native fit path relies on it instead of per-learner
// ad-hoc handling.
func (f *Frame) CheckFinite() error {
	if f.store != nil {
		return f.ForEachChunk(func(base int, ch *Frame) error {
			for j := range ch.schema {
				col := ch.Col(j)
				for i, v := range col {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("frame: non-finite value %v at row %d, column %d (%s)", v, base+i, j, f.schema[j].Name)
					}
				}
			}
			return nil
		})
	}
	for j := range f.schema {
		col := f.Col(j)
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("frame: non-finite value %v at row %d, column %d (%s)", v, i, j, f.schema[j].Name)
			}
		}
	}
	return nil
}

// Validate checks internal consistency (span coverage and label length).
func (f *Frame) Validate() error {
	if f.labels != nil && len(f.labels) != f.rows {
		return fmt.Errorf("frame: %d labels for %d rows", len(f.labels), f.rows)
	}
	prev := 0
	for _, s := range f.spans {
		if s.Start != prev || s.End < s.Start || s.End > f.rows {
			return fmt.Errorf("frame: bad span %+v (rows=%d, expected start %d)", s, f.rows, prev)
		}
		prev = s.End
	}
	if len(f.spans) > 0 && prev != f.rows {
		return fmt.Errorf("frame: spans cover %d of %d rows", prev, f.rows)
	}
	return nil
}

func cloneSpans(s []Span) []Span {
	if s == nil {
		return nil
	}
	return append([]Span(nil), s...)
}
