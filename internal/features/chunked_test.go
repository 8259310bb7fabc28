package features

import (
	"bytes"
	"math"
	"testing"

	"monitorless/internal/frame"
)

// framesEqualBits compares two dense frames bit-for-bit: schema names,
// dimensions, spans, labels, and every cell's float64 bit pattern.
func framesEqualBits(t *testing.T, want, got *frame.Frame) {
	t.Helper()
	if got.NumCols() != want.NumCols() || got.Rows() != want.Rows() {
		t.Fatalf("shape mismatch: got %dx%d, want %dx%d",
			got.Rows(), got.NumCols(), want.Rows(), want.NumCols())
	}
	for j := 0; j < want.NumCols(); j++ {
		if got.Schema()[j].Name != want.Schema()[j].Name {
			t.Fatalf("col %d name %q, want %q", j, got.Schema()[j].Name, want.Schema()[j].Name)
		}
		wc, gc := want.Col(j), got.Col(j)
		for i := range wc {
			if math.Float64bits(wc[i]) != math.Float64bits(gc[i]) {
				t.Fatalf("col %d row %d: %x != %x (%v vs %v)",
					j, i, math.Float64bits(gc[i]), math.Float64bits(wc[i]), gc[i], wc[i])
			}
		}
	}
}

// TestPipelineChunkedMatchesDense is the feature-layer half of the
// out-of-core contract: fitting the paper's default pipeline on a
// chunk-backed copy of the training frame must produce a gob-identical
// fitted pipeline and a bit-identical engineered frame. Exercises the
// chunk-sweep fits (StandardScale, DropZeroVariance), the per-run
// streaming transform, and the RF filter's run-view materialization.
func TestPipelineChunkedMatchesDense(t *testing.T) {
	dense := synthFrame(4, 120, 42)
	chunked, err := frame.Rechunk(dense, 64, t.TempDir())
	if err != nil {
		t.Fatalf("Rechunk: %v", err)
	}
	defer chunked.Close()

	cfg := DefaultConfig()
	cfg.Seed = 7

	pd, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	outDense, err := pd.FitFrame(dense)
	if err != nil {
		t.Fatalf("dense FitFrame: %v", err)
	}

	pc, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	outChunked, err := pc.FitFrame(chunked)
	if err != nil {
		t.Fatalf("chunked FitFrame: %v", err)
	}
	if !outChunked.Chunked() {
		t.Fatal("chunked FitFrame returned a dense frame")
	}

	gd, err := pd.EncodeGob()
	if err != nil {
		t.Fatalf("dense EncodeGob: %v", err)
	}
	gc, err := pc.EncodeGob()
	if err != nil {
		t.Fatalf("chunked EncodeGob: %v", err)
	}
	if !bytes.Equal(gd, gc) {
		t.Errorf("fitted pipelines differ: dense gob %d bytes, chunked gob %d bytes", len(gd), len(gc))
	}
	framesEqualBits(t, outDense, outChunked.Materialize())
	outChunked.Discard()

	// The fitted pipeline must also transform a chunked frame identically.
	tr, err := pd.TransformFrame(chunked)
	if err != nil {
		t.Fatalf("chunked TransformFrame: %v", err)
	}
	framesEqualBits(t, outDense, tr.Materialize())
	tr.Discard()
}
