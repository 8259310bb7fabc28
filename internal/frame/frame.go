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
//     occupies data[j·stride+off : j·stride+off+rows]. For a frame
//     NewDense made, off = 0 and stride = rows.
//   - Col returns the live backing segment: writes through it are visible
//     to every view sharing the backing, and vice versa. Transforms treat
//     input frames as read-only.
//   - RowRange and RunView return zero-copy views that alias the parent's
//     backing, labels and spans.
//   - NewDense is the one constructor: a frame is allocated at its final
//     size and filled column by column; it never grows.
//
// Rows are grouped into contiguous runs (the paper's cross-validation
// groups, §3.4) described by Spans; labels are optional and aliased, not
// copied, across views and derived frames — they are never mutated by
// transforms.
package frame

import (
	"fmt"
	"math"
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
	stride int // backing rows per column
	off    int // first backing row of this view
	rows   int
	spans  []Span
	labels []int // nil, or exactly rows entries aligned with the view
}

// NewDense returns an exact-size frame with rows zeroed rows, the given
// spans (aliased) and labels (aliased, may be nil): allocate once, fill
// columns in place.
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
	}
}

// Schema returns the column metadata. Callers must not mutate it.
func (f *Frame) Schema() Schema { return f.schema }

// Rows returns the number of rows in this view.
func (f *Frame) Rows() int { return f.rows }

// NumCols returns the schema width.
func (f *Frame) NumCols() int { return len(f.schema) }

// Col returns the zero-copy contiguous backing segment of column j.
// Writing through it mutates every view sharing the backing.
func (f *Frame) Col(j int) []float64 {
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

// Row gathers row i into dst (reused when cap suffices) and returns it.
func (f *Frame) Row(i int, dst []float64) []float64 {
	d := len(f.schema)
	if cap(dst) < d {
		dst = make([]float64, d)
	}
	dst = dst[:d]
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

// Chunked reports false: every frame is dense. It exists only for the
// benchmark's offline job, which asks before discarding an intermediate;
// the next change to the benchmark removes the call and this method.
func (f *Frame) Chunked() bool { return false }

// Discard is a no-op kept only for the same benchmark call as Chunked,
// and goes with it.
func (f *Frame) Discard() error { return nil }

// MaterializeRows gathers the frame into row-major [][]float64 slices
// (one backing allocation) for the row-iterating learners and callers
// that replay rows one at a time.
func (f *Frame) MaterializeRows() [][]float64 {
	d := len(f.schema)
	flat := make([]float64, f.rows*d)
	rows := make([][]float64, f.rows)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
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
