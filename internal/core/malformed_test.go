package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math"
	"strings"
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
// model.
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

// legacyBundleMirror is bundleWire without the version-5 checksum: the
// header of a version 3 or 4 file.
type legacyBundleMirror struct {
	Magic      string
	Version    int
	SchemaHash string
	TrainSeed  int64
	ModelBlob  []byte
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

// editForest rewrites a bundle's forest in place and re-signs the model
// blob, so the load reaches the forest's own checks: edit sees the forest
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
		bw.ModelSHA256 = sha256.Sum256(bw.ModelBlob)
	})
}

// TestLoadBundleRejectsMalformedForest: POST /model takes bundle bytes
// from the network, so a forest whose trees would loop, index past the
// row, emit a non-probability or split on a NaN threshold must fail to
// load rather than hang or crash the server later — and so must a bundle
// whose model blob no longer matches its checksum.
func TestLoadBundleRejectsMalformedForest(t *testing.T) {
	bundle := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, m, 1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	exactModel, _ := sharedModel(t)
	hist, exact := bundle(sharedHistModel(t)), bundle(exactModel)

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
	tree0 := func(edit func(tm *treeMirror)) func(*forestMirror, int, *treeMirror) {
		return func(_ *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				edit(tm)
			}
		}
	}

	// flipped is the hist bundle with one byte of its model blob flipped
	// and the checksum left as saved.
	var bw bundleWire
	flipped := gobRoundTrip(t, hist, &bw, func() { bw.ModelBlob[len(bw.ModelBlob)/2] ^= 0x10 })

	cases := []struct {
		name   string
		bundle []byte
		want   string // a substring of the refusal, when it must name one
	}{
		{"truncated child slabs", editForest(t, hist, tree0(func(tm *treeMirror) { tm.Left, tm.Right = nil, nil })), ""},
		{"child not after its parent", editForest(t, hist, tree0(func(tm *treeMirror) {
			i := firstInternal(tm)
			tm.Left[i] = int32(i)
		})), ""},
		{"feature index past the row", editForest(t, hist, tree0(func(tm *treeMirror) {
			tm.Features[firstInternal(tm)] = int32(tm.NFeatures)
		})), ""},
		{"NaN leaf probability", editForest(t, hist, tree0(func(tm *treeMirror) { tm.Probs[firstLeaf(tm)] = math.NaN() })), ""},
		{"NaN threshold", editForest(t, exact, tree0(func(tm *treeMirror) {
			tm.Thresholds[firstInternal(tm)] = math.NaN()
		})), "NaN threshold"},
		// Every tree and the forest agree on a width one past the
		// pipeline's, and tree 0 reads that extra column.
		{"forest wider than the pipeline", editForest(t, exact, func(fm *forestMirror, ti int, tm *treeMirror) {
			if ti == 0 {
				fm.NFeatures++
				tm.Features[firstInternal(tm)] = int32(tm.NFeatures)
			}
			tm.NFeatures++
		}), ""},
		{"flipped model blob byte", flipped, "checksum"},
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
	for _, b := range [][]byte{hist, exact} {
		if err := load(t, editForest(t, b, func(*forestMirror, int, *treeMirror) {})); err != nil {
			t.Fatalf("unedited round trip through the mirrors: %v", err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := load(t, tc.bundle)
			if err == nil {
				t.Fatal("malformed bundle loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q does not name %q", err, tc.want)
			}
			t.Log(err)
		})
	}
}
