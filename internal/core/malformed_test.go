package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"
	"time"

	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

var (
	histModelOnce sync.Once
	histModelV    *Model
	histModelErr  error
)

// sharedHistModel trains (once per test binary) a histogram-splitter
// model: its bundle is version 4, carrying the compiled forest's edges.
func sharedHistModel(t *testing.T) *Model {
	t.Helper()
	_, ds := trainSubset(t)
	histModelOnce.Do(func() {
		cfg := smallTrainConfig()
		cfg.Forest.Splitter = tree.Hist
		cfg.Forest.NumTrees = 15
		histModelV, histModelErr = Train(ds.FilterRuns(1, 8, 22), cfg)
	})
	if histModelErr != nil {
		t.Fatalf("Train: %v", histModelErr)
	}
	return histModelV
}

// gobBlob stands in for a nested gob.GobEncoder value: gob hands such a
// value to any GobDecoder as opaque bytes, so a test can lift a nested
// blob out of a bundle, edit it through a mirror struct and splice it
// back.
type gobBlob []byte

func (b gobBlob) GobEncode() ([]byte, error) { return b, nil }

func (b *gobBlob) GobDecode(p []byte) error {
	*b = append(gobBlob(nil), p...)
	return nil
}

// modelMirror, forestMirror and treeMirror repeat the field names of
// modelWire and the forest's and tree's wire structs (gob matches fields
// by name), with the nested encoders held as blobs.
type modelMirror struct {
	PipelineBlob       []byte
	Forest             gobBlob
	Threshold          float64
	RawSchema          frame.Schema
	Fingerprint        *frame.Fingerprint
	TrainSamples       int
	TrainSaturatedFrac float64
}

type forestMirror struct {
	Cfg         forest.Config
	Trees       []gobBlob
	Importances []float64
	NFeatures   int
	Fitted      bool
	BinEdges    [][]float64
	QuantThr    [][]uint8
	QuantFlags  [][]uint8
}

type treeMirror struct {
	Cfg         tree.Config
	Features    []int32
	Left        []int32
	Right       []int32
	Thresholds  []float64
	Probs       []float64
	NFeatures   int
	Importances []float64
	Fitted      bool
}

func gobRoundTrip(t *testing.T, data []byte, v any, edit func()) []byte {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		t.Fatal(err)
	}
	edit()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editForest rewrites a bundle's forest in place: edit sees the forest
// with each of its trees in turn (ti is the tree's index).
func editForest(t *testing.T, bundle []byte, edit func(fm *forestMirror, ti int, tm *treeMirror)) []byte {
	t.Helper()
	var bw bundleWire
	var mm modelMirror
	var fm forestMirror
	return gobRoundTrip(t, bundle, &bw, func() {
		bw.ModelBlob = gobRoundTrip(t, bw.ModelBlob, &mm, func() {
			mm.Forest = gobRoundTrip(t, mm.Forest, &fm, func() {
				for ti := range fm.Trees {
					var tm treeMirror
					fm.Trees[ti] = gobRoundTrip(t, fm.Trees[ti], &tm, func() { edit(&fm, ti, &tm) })
				}
			})
		})
	})
}

// TestLoadBundleRejectsMalformedForest: POST /model takes bundle bytes
// from the network, so a forest whose trees would loop, index past the
// row, or emit a non-probability — or whose edge sets are not code maps —
// must fail to load rather than hang or crash the server later.
func TestLoadBundleRejectsMalformedForest(t *testing.T) {
	m := sharedHistModel(t)
	exact, _ := sharedModel(t)
	bundle := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, m, 1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v4, v3 := bundle(m), bundle(exact)

	// An edge set no node reads (a column with zero importance is never
	// split on): a bad one there must still be refused.
	spare := -1
	for j, imp := range m.Forest.FeatureImportances() {
		if imp == 0 {
			spare = j
			break
		}
	}
	if spare < 0 {
		t.Fatal("every engineered column is tested; no spare column for the edge-set cases")
	}
	firstInternal := func(tm *treeMirror) int {
		for i, f := range tm.Features {
			if f >= 0 {
				return i
			}
		}
		t.Fatal("tree 0 is a single leaf")
		return 0
	}
	firstLeaf := func(tm *treeMirror) int {
		for i, f := range tm.Features {
			if f < 0 {
				return i
			}
		}
		return 0
	}

	// Tree-level cases edit tree 0 of the v4 bundle.
	cases := []struct {
		name   string
		bundle []byte
		edit   func(fm *forestMirror, ti int, tm *treeMirror)
	}{
		{"truncated child slabs", v4, func(_ *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				tm.Left, tm.Right = nil, nil
			}
		}},
		{"child not after its parent", v4, func(_ *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				i := firstInternal(tm)
				tm.Left[i] = int32(i)
			}
		}},
		{"feature index past the row", v4, func(_ *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				tm.Features[firstInternal(tm)] = int32(tm.NFeatures)
			}
		}},
		{"NaN leaf probability", v4, func(_ *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				tm.Probs[firstLeaf(tm)] = math.NaN()
			}
		}},
		{"300-edge column", v4, func(fm *forestMirror, _ int, _ *treeMirror) {
			e := make([]float64, 300)
			for i := range e {
				e[i] = float64(i)
			}
			fm.BinEdges[spare] = e
		}},
		{"descending edge", v4, func(fm *forestMirror, _ int, _ *treeMirror) { fm.BinEdges[spare] = []float64{1, 3, 2} }},
		// Every tree and the forest agree on a width one past the
		// pipeline's, and tree 0 reads that extra column.
		{"forest wider than the pipeline", v3, func(fm *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				fm.NFeatures++
				tm.Features[firstInternal(tm)] = int32(tm.NFeatures)
			}
			tm.NFeatures++
		}},
	}
	load := func(t *testing.T, b []byte) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { _, err := LoadBundle(bytes.NewReader(b)); done <- err }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("LoadBundle did not return within 10 s")
			return nil
		}
	}
	for _, b := range [][]byte{v4, v3} {
		if err := load(t, editForest(t, b, func(*forestMirror, int, *treeMirror) {})); err != nil {
			t.Fatalf("unedited round trip through the mirrors: %v", err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := load(t, editForest(t, tc.bundle, tc.edit)); err == nil {
				t.Fatal("malformed forest loaded")
			} else {
				t.Log(err)
			}
		})
	}
}
