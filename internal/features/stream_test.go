package features

import (
	"testing"
)

// streamConfigs enumerates the pipeline layouts the equivalence tests
// cover: the paper's selected layout, a PCA variant, and a layout with no
// time features (the degenerate stream).
func streamConfigs() map[string]Config {
	return map[string]Config{
		"default": DefaultConfig(),
		"pca": {
			Normalize:    true,
			Reduce1:      ReducePCA,
			TimeFeatures: true,
			Products:     false,
			Reduce2:      ReduceNone,
			PCAMax:       6,
		},
		"no-time": {
			Normalize:    true,
			Reduce1:      ReduceFilter,
			TimeFeatures: false,
			Products:     true,
			Reduce2:      ReduceNone,
			FilterTopK:   10,
		},
		"bare": {},
	}
}

// TestStreamerMatchesBatchBitIdentical streams each held-out run alone,
// one sample per step (a batch of one), against the offline pipeline.
func TestStreamerMatchesBatchBitIdentical(t *testing.T) {
	held := synthFrame(3, 60, 23)
	for name, cfg := range streamConfigs() {
		t.Run(name, func(t *testing.T) {
			pipe, str := fitStreamer(t, cfg)
			if str.NumOutputs() != pipe.NumOutputs() {
				t.Fatalf("streamer outputs %d, pipeline %d", str.NumOutputs(), pipe.NumOutputs())
			}
			d := newSlabDriver(t, pipe, str, held, held.NumRuns())
			for ri, rows := range d.held {
				for range rows {
					d.add(int32(ri), ri)
					d.flush()
				}
			}
		})
	}
}

func TestStreamerLongStreamBoundedStateMatchesBatch(t *testing.T) {
	// A stream several times longer than the time window must still agree
	// with the offline pipeline while keeping only O(window) rows of state.
	pipe, str := fitStreamer(t, DefaultConfig())
	d := newSlabDriver(t, pipe, str, synthFrame(1, 400, 47), 1)
	before := d.sl.Bytes()
	for range d.held[0] {
		d.add(0, 0)
		d.flush()
	}
	// The flat rings stay O(window × base cols), independent of the
	// 400-sample stream length: base holds maxLag+1 rows and prefix
	// 1+maxAvg+2 rows at baseCols floats each, per slot.
	if d.sl.Bytes() != before {
		t.Fatalf("slab grew while streaming: %d -> %d bytes", before, d.sl.Bytes())
	}
	if perSlot, bound := d.sl.baseStride()+d.sl.prefStride(), 64*str.baseCols; perSlot > bound {
		t.Fatalf("stream state is not bounded: %d floats per slot, want <= %d", perSlot, bound)
	}
}

func TestStreamerRejectsUnfittedAndBadWidth(t *testing.T) {
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Streamer(); err == nil {
		t.Fatal("expected error for unfitted pipeline")
	}
	_, str := fitStreamer(t, DefaultConfig())
	if err := str.CheckWidth([]float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong raw width")
	}
}

func TestStreamerStatesAreIndependent(t *testing.T) {
	// Two instances alternating through one slab must each get the
	// vectors the offline pipeline computes for their history alone (slots
	// carry all mutability).
	pipe, str := fitStreamer(t, DefaultConfig())
	d := newSlabDriver(t, pipe, str, synthFrame(2, 50, 101), 2)
	for range d.held[0] {
		d.add(0, 0)
		d.flush()
		d.add(1, 1)
		d.flush()
	}
}
