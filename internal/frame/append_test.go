package frame

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendRows is the row-at-a-time append AppendFrame used to be: gather
// each row and hand it to the row appender (the unlabeled one existed for
// this loop alone and lives on here). Kept as the reference the block
// copy is compared against.
func appendRows(w *ChunkedWriter, fr *Frame) error {
	spans := fr.Spans()
	if len(spans) == 0 && fr.Rows() > 0 {
		spans = []Span{{ID: 0, Start: 0, End: fr.Rows()}}
	}
	labels := fr.Labels()
	var rowBuf []float64
	for _, s := range spans {
		for i := s.Start; i < s.End; i++ {
			rowBuf = fr.Row(i, rowBuf)
			var err error
			if labels != nil {
				err = w.AppendLabeledRow(s.ID, rowBuf, labels[i])
			} else {
				if w.labeled == 1 {
					return fmt.Errorf("frame: unlabeled append on a labeled chunked writer")
				}
				w.labeled = 0
				err = w.appendRow(s.ID, rowBuf)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// spanless returns rows [lo, hi) of fr as an owning frame without spans.
func spanless(fr *Frame, lo, hi int, labeled bool) *Frame {
	out := fr.RowRange(lo, hi).Clone()
	out.spans = nil
	if !labeled {
		out.labels = nil
	}
	return out
}

// writeAll appends the frames through appendFn and finishes the writer.
func writeAll(t *testing.T, schema Schema, chunkRows int, dir string, frames []*Frame, appendFn func(*ChunkedWriter, *Frame) error) *Frame {
	t.Helper()
	w, err := NewChunkedWriter(schema, chunkRows, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if err := appendFn(w, fr); err != nil {
			t.Fatalf("append frame %d: %v", i, err)
		}
	}
	out, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameChunks compares two chunk-backed frames chunk slab by chunk
// slab, so a wrong stride or a shifted segment shows even where the
// logical cells would agree.
func requireSameChunks(t *testing.T, want, got *Frame) {
	t.Helper()
	assertFramesEqual(t, want, got)
	if got.NumChunks() != want.NumChunks() {
		t.Fatalf("%d chunks, want %d", got.NumChunks(), want.NumChunks())
	}
	for k := 0; k < want.NumChunks(); k++ {
		a, err := want.store.ChunkData(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.store.ChunkData(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(floatsAsBytes(a), floatsAsBytes(b)) {
			t.Fatalf("chunk %d differs from the row path's", k)
		}
	}
}

// requireSameFiles compares two spill directories byte for byte.
func requireSameFiles(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	want, err := os.ReadDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d files, row path wrote %d", len(got), len(want))
	}
	for _, e := range want {
		a, err := os.ReadFile(filepath.Join(wantDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(gotDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs from the row path's", e.Name())
		}
	}
}

func TestAppendFrameMatchesRowAppend(t *testing.T) {
	dense := buildDense(t, 700, 5, 4, 3)
	chunked, err := Rechunk(dense, 100, "")
	if err != nil {
		t.Fatal(err)
	}
	// Appended in a row so chunk boundaries fall mid-frame and mid-run,
	// and the trailing span of one frame meets the leading span of the
	// next both with the same run ID (merged) and with another (not).
	labeled := []*Frame{
		dense,
		dense.RowRange(650, 700),
		chunked.RowRange(37, 611),
		dense.RowRange(150, 550),
		spanless(dense, 10, 60, true),
		chunked,
		dense.RowRange(0, 1),
	}
	unlabeled := []*Frame{
		spanless(dense, 0, 333, false),
		spanless(dense, 333, 700, false),
	}
	unlabeled[1].spans = []Span{{ID: 0, Start: 0, End: 100}, {ID: 9, Start: 100, End: 367}}
	for _, tc := range []struct {
		name   string
		frames []*Frame
	}{{"labeled", labeled}, {"unlabeled", unlabeled}} {
		for _, chunkRows := range []int{1, 7, 595, 4096} {
			want := writeAll(t, dense.Schema(), chunkRows, "", tc.frames, appendRows)
			got := writeAll(t, dense.Schema(), chunkRows, "", tc.frames, (*ChunkedWriter).AppendFrame)
			requireSameChunks(t, want, got)

			wantDir, gotDir := filepath.Join(t.TempDir(), "rows"), filepath.Join(t.TempDir(), "blocks")
			want = writeAll(t, dense.Schema(), chunkRows, wantDir, tc.frames, appendRows)
			got = writeAll(t, dense.Schema(), chunkRows, gotDir, tc.frames, (*ChunkedWriter).AppendFrame)
			requireSameChunks(t, want, got)
			requireSameFiles(t, wantDir, gotDir)
			want.Close()
			got.Close()
		}
	}

	// Every refusal comes before the first row is written: the writer
	// carries on as if the bad append had never been attempted.
	narrow := New(testSchema(4), 0)
	if err := narrow.AppendLabeled(1, make([]float64, 4), 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		first *Frame
		bad   *Frame
	}{
		{"width mismatch", dense, narrow},
		{"unlabeled into labeled", dense, unlabeled[0]},
		{"labeled into unlabeled", unlabeled[0], dense},
	} {
		w, err := NewChunkedWriter(dense.Schema(), 64, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendFrame(tc.first); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendFrame(tc.bad); err == nil {
			t.Fatalf("%s: append succeeded", tc.name)
		}
		if w.Rows() != tc.first.Rows() {
			t.Fatalf("%s: %d rows after the refused append, want %d", tc.name, w.Rows(), tc.first.Rows())
		}
		out, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		requireSameChunks(t, writeAll(t, dense.Schema(), 64, "", []*Frame{tc.first}, appendRows), out)
		if err := w.AppendFrame(tc.first); err == nil {
			t.Fatalf("%s: append after Finish succeeded", tc.name)
		}
	}
}

func TestDenseViewCopiesOnlyAcrossChunks(t *testing.T) {
	dense := buildDense(t, 700, 5, 4, 5)
	chunked, err := Rechunk(dense, 256, "")
	if err != nil {
		t.Fatal(err)
	}
	if dense.DenseView() != dense {
		t.Error("DenseView of a dense frame is not the frame itself")
	}

	// A run inside one chunk is a view of the chunk's own slab.
	inside := chunked.RowRange(266, 500)
	v := inside.DenseView()
	assertFramesEqual(t, dense.RowRange(266, 500).Clone(), v.Clone())
	slab, err := chunked.store.ChunkData(1)
	if err != nil {
		t.Fatal(err)
	}
	if &v.Col(0)[0] != &slab[10] || &v.Col(4)[233] != &slab[4*256+10+233] {
		t.Error("DenseView of a run inside one chunk copied it")
	}
	// Frame header, clipped spans, and the closure that captures it: no
	// allocation that grows with the data.
	if n := testing.AllocsPerRun(50, func() { v = inside.DenseView() }); n > 4 {
		t.Errorf("in-chunk DenseView allocates %.0f per call, want <= 4", n)
	}

	// A run across a boundary is Materialize's copy.
	across := chunked.RowRange(200, 300)
	assertFramesEqual(t, across.Materialize(), across.DenseView())

	// Clone of either still owns its memory.
	for _, view := range []*Frame{inside, across} {
		c := view.DenseView().Clone()
		before := view.At(0, 0)
		c.Set(0, 0, before+1)
		if view.At(0, 0) != before {
			t.Error("Clone of a DenseView aliases the store")
		}
		if err := c.AppendLabeled(99, make([]float64, c.NumCols()), 0); err != nil {
			t.Errorf("Clone of a DenseView cannot append: %v", err)
		}
	}
	if chunked.RowRange(5, 5).DenseView().Rows() != 0 {
		t.Error("empty view")
	}
}
