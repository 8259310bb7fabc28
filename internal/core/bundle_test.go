package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"monitorless/internal/features"
	"monitorless/internal/frame"
)

func TestBundleRoundTripIdenticalPredictions(t *testing.T) {
	m, ds := sharedModel(t)

	var buf bytes.Buffer
	if err := SaveBundle(&buf, m, 42); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != BundleVersion {
		t.Errorf("Version = %d, want %d", b.Version, BundleVersion)
	}
	if b.TrainSeed != 42 {
		t.Errorf("TrainSeed = %d, want 42", b.TrainSeed)
	}
	if b.SchemaHash != m.RawSchema.Hash() {
		t.Errorf("SchemaHash does not cover the model's raw frame schema")
	}
	if err := b.CheckSchema(m.RawNames()); err != nil {
		t.Errorf("CheckSchema against own schema: %v", err)
	}

	// Loaded model must predict bit-identically to the original.
	fr := ds.FilterRuns(1).Frame()
	origPreds, origProbs, err := m.PredictFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	gotPreds, gotProbs, err := b.Model.PredictFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	for id := range origProbs {
		for i := range origProbs[id] {
			if origProbs[id][i] != gotProbs[id][i] || origPreds[id][i] != gotPreds[id][i] {
				t.Fatalf("run %d tick %d: loaded bundle predicts %v/%d, original %v/%d",
					id, i, gotProbs[id][i], gotPreds[id][i], origProbs[id][i], origPreds[id][i])
			}
		}
	}
}

// TestBundleLegacyFallback: a bare model gob (the pre-bundle "version 0"
// format) is refused with the retrain advice instead of loading.
func TestBundleLegacyFallback(t *testing.T) {
	m, _ := sharedModel(t)
	blob, err := m.encode() // bare-model format
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadBundle(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "format version 0 bare-model file must be retrained with this build") {
		t.Fatalf("bare model gob: got %v, want a version-0 refusal", err)
	}
}

// TestBundleV3RoundTripFingerprintAndCalibration pins what the v3 format
// introduced and every later one keeps: the bundle carries the training
// fingerprint through gob encode/decode, and a recalibrated (non-default)
// threshold survives the round trip.
func TestBundleV3RoundTripFingerprintAndCalibration(t *testing.T) {
	shared, _ := sharedModel(t)
	m := *shared // a copy, so the new threshold does not disturb other tests

	const thr = 0.55
	m.Threshold = thr

	var buf bytes.Buffer
	if err := SaveBundle(&buf, &m, 9); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != BundleVersion {
		t.Fatalf("Version = %d, want %d", b.Version, BundleVersion)
	}
	if b.Model.Threshold != thr {
		t.Fatalf("calibrated threshold lost: model %v, want %v", b.Model.Threshold, thr)
	}
	fp := b.Model.Fingerprint
	if fp == nil {
		t.Fatal("v3 bundle lost the training fingerprint")
	}
	if err := fp.Validate(len(b.Model.RawSchema)); err != nil {
		t.Fatal(err)
	}
	orig := m.Fingerprint
	if fp.Rows != orig.Rows || len(fp.Cols) != len(orig.Cols) {
		t.Fatalf("fingerprint shape changed: rows %d→%d cols %d→%d",
			orig.Rows, fp.Rows, len(orig.Cols), len(fp.Cols))
	}
	for j := range fp.Cols {
		a, bcol := orig.Cols[j], fp.Cols[j]
		if a.Name != bcol.Name || a.Mean != bcol.Mean || a.Std != bcol.Std ||
			a.Min != bcol.Min || a.Max != bcol.Max ||
			len(a.Edges) != len(bcol.Edges) || len(a.Props) != len(bcol.Props) {
			t.Fatalf("fingerprint column %d changed across round trip:\n%+v\n%+v", j, a, bcol)
		}
	}
}

// TestBundleCrossVersionRefusal covers the read-side guards: a bundle
// from a future format version is refused, bundles older than current−1
// (v1/v2, which hashed names only or carried no fingerprint) are refused
// with the retrain advice, and a bundle whose stored schema hash does not
// match the embedded model (a reader expecting a different schema) is
// refused rather than served.
func TestBundleCrossVersionRefusal(t *testing.T) {
	m, _ := sharedModel(t)
	blob, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}

	encode := func(w bundleWire) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	future := encode(bundleWire{
		Magic: bundleMagic, Version: BundleVersion + 1,
		SchemaHash: m.RawSchema.Hash(), ModelBlob: blob,
	})
	if _, err := LoadBundle(bytes.NewReader(future)); err == nil ||
		!strings.Contains(err.Error(), "not supported") {
		t.Fatalf("future version: got %v, want version refusal", err)
	}

	for _, v := range []int{1, 2} {
		old := encode(bundleWire{
			Magic: bundleMagic, Version: v,
			SchemaHash: m.RawSchema.Hash(), ModelBlob: blob,
		})
		want := fmt.Sprintf("format version %d: retrain with this build", v)
		if _, err := LoadBundle(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: got %v, want %q", v, err, want)
		}
	}

	mismatched := encode(bundleWire{
		Magic: bundleMagic, Version: BundleVersion,
		SchemaHash: strings.Repeat("ab", 32), ModelBlob: blob, ModelSHA256: sha256.Sum256(blob),
	})
	if _, err := LoadBundle(bytes.NewReader(mismatched)); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched schema hash: got %v, want hash refusal", err)
	}
}

// TestBundleLegacyNoFingerprint: every readable format requires a
// training fingerprint, so a model without one cannot be saved, and a
// bundle that lost its fingerprint is refused on load.
func TestBundleLegacyNoFingerprint(t *testing.T) {
	shared, _ := sharedModel(t)
	m := *shared
	m.Fingerprint = nil
	var buf bytes.Buffer
	if err := SaveBundle(&buf, &m, 5); err == nil || !strings.Contains(err.Error(), "no training fingerprint") {
		t.Fatalf("saving a fingerprint-less model: got %v, want refusal", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused save wrote %d bytes", buf.Len())
	}

	blob, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(bundleWire{
		Magic: bundleMagic, Version: 3,
		SchemaHash: m.RawSchema.Hash(), ModelBlob: blob,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(&buf); err == nil || !strings.Contains(err.Error(), "no training fingerprint") {
		t.Fatalf("fingerprint-less v3 bundle: got %v, want refusal", err)
	}
}

func TestBundleRejectsGarbage(t *testing.T) {
	if _, err := LoadBundle(strings.NewReader("not a gob at all")); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func TestBundleCheckSchemaMismatch(t *testing.T) {
	m, _ := sharedModel(t)
	var buf bytes.Buffer
	if err := SaveBundle(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	names := m.RawNames()
	truncated := names[:len(names)-1]
	if err := b.CheckSchema(truncated); err == nil || !strings.Contains(err.Error(), "raw metrics") {
		t.Errorf("truncated schema: got %v, want metric-count mismatch error", err)
	}
	renamed := append([]string(nil), names...)
	renamed[3] = "kernel.all.cpu.borrowed"
	err = b.CheckSchema(renamed)
	if err == nil || !strings.Contains(err.Error(), "metric 3") {
		t.Errorf("renamed schema: got %v, want first-divergence error", err)
	}
}

func TestBundleHashSensitiveToColumnOrder(t *testing.T) {
	// The bundle fingerprint must change when two raw schema columns are
	// reordered: the vector layout is positional, so a reordered catalog
	// served against this model would silently mis-predict. This pins the
	// schema hash to column order, not just column membership.
	m, _ := sharedModel(t)
	var buf bytes.Buffer
	if err := SaveBundle(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	reordered := m.RawSchema.Clone()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if reordered.Hash() == b.SchemaHash {
		t.Fatal("reordering two schema columns did not change the bundle schema hash")
	}
	// Flag metadata is covered too: flipping a log flag (which changes
	// how the pipeline treats the column) must change the fingerprint.
	flagged := m.RawSchema.Clone()
	flagged[0].Log = !flagged[0].Log
	if flagged.Hash() == b.SchemaHash {
		t.Fatal("flipping a column flag did not change the bundle schema hash")
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	m, _ := sharedModel(t)
	path := t.TempDir() + "/model.gob"
	if err := SaveBundleFile(path, m, 7); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.TrainSeed != 7 || b.Model == nil {
		t.Fatalf("bundle file round trip lost data: %+v", b)
	}
	if _, err := LoadBundleFile(path + ".missing"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestBundleV4QuantRoundTrip: a histogram-trained model saves at the
// current version, the loaded model carries the compiled predictor
// rebuilt from its trees, and its predictions are bit-identical to the
// original's.
func TestBundleV4QuantRoundTrip(t *testing.T) {
	_, ds := trainSubset(t)
	m := sharedHistModel(t)
	if m.Forest.Quant() == nil {
		t.Fatal("hist training did not install a compiled quantized predictor")
	}

	var buf bytes.Buffer
	if err := SaveBundle(&buf, m, 7); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != BundleVersion {
		t.Fatalf("loaded Version = %d, want %d", b.Version, BundleVersion)
	}
	if b.Model.Forest.Quant() == nil {
		t.Fatal("loaded bundle has no quantized predictor")
	}
	assertSameProbs(t, "loaded", m, b.Model, ds.FilterRuns(1).Frame())
}

// assertSameProbs fails on the first probability of got that differs in
// its bits from want's on the raw frame fr.
func assertSameProbs(t *testing.T, label string, want, got *Model, fr *frame.Frame) {
	t.Helper()
	_, wantProbs, err := want.PredictFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	_, gotProbs, err := got.PredictFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	for id := range wantProbs {
		for i := range wantProbs[id] {
			if math.Float64bits(wantProbs[id][i]) != math.Float64bits(gotProbs[id][i]) {
				t.Fatalf("%s: run %d tick %d: %v, want %v", label, id, i, gotProbs[id][i], wantProbs[id][i])
			}
		}
	}
}

// TestBundleLoadsV3AndV5: the same model saved as v5 and rewritten as v3
// (version 3, no checksum field) loads from both, compiled, and predicts
// the in-memory model's probabilities bit for bit from each — for the
// exact and the hist model. v4 is TestStreamedBundleStillLoads' fixture.
func TestBundleLoadsV3AndV5(t *testing.T) {
	exact, ds := sharedModel(t)
	fr := ds.FilterRuns(1).Frame()
	for name, m := range map[string]*Model{"exact": exact, "hist": sharedHistModel(t)} {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, m, 7); err != nil {
			t.Fatal(err)
		}
		v5 := buf.Bytes()
		var bw legacyBundleMirror
		v3 := gobRoundTrip(t, v5, &bw, func() { bw.Version = 3 })
		for _, c := range []struct {
			version int
			blob    []byte
		}{{5, v5}, {3, v3}} {
			b, err := LoadBundle(bytes.NewReader(c.blob))
			if err != nil {
				t.Fatalf("%s v%d: %v", name, c.version, err)
			}
			if b.Version != c.version || b.Model.Forest.Quant() == nil {
				t.Fatalf("%s v%d: loaded version %d, compiled %v", name, c.version, b.Version, b.Model.Forest.Quant() != nil)
			}
			assertSameProbs(t, fmt.Sprintf("%s v%d", name, c.version), m, b.Model, fr)
		}
	}
}

// TestWatchListFollowsLivenessPlan: however a model is assembled — trained
// or loaded from a bundle — its fingerprint watches exactly the raw
// columns the pipeline's liveness plan proves live; the list is derived
// state that never reaches the bundle bytes; and a pipeline with no
// streamer (PCA) watches every column.
func TestWatchListFollowsLivenessPlan(t *testing.T) {
	m, ds := sharedModel(t)
	wantWatch := func(m *Model) []int32 {
		t.Helper()
		s, err := m.Streamer()
		if err != nil {
			t.Fatal(err)
		}
		live := s.RawLive()
		if live == nil {
			t.Fatal("paper-layout pipeline pruned no raw column")
		}
		var want []int32
		for j, on := range live {
			if on {
				want = append(want, int32(j))
			}
		}
		return want
	}
	check := func(how string, m *Model) {
		t.Helper()
		got, want := m.Fingerprint.Watched(), wantWatch(m)
		if len(want) == 0 || len(want) >= len(m.RawSchema) {
			t.Fatalf("%s: liveness plan keeps %d of %d raw columns", how, len(want), len(m.RawSchema))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: watch list %v, liveness plan %v", how, got, want)
		}
	}
	check("trained", m)

	var buf bytes.Buffer
	if err := SaveBundle(&buf, m, 7); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", b.Model)

	// The same model with no watch list writes the same bytes.
	bare := *m
	bare.Fingerprint = &frame.Fingerprint{Rows: m.Fingerprint.Rows, Cols: m.Fingerprint.Cols}
	var buf2 bytes.Buffer
	if err := SaveBundle(&buf2, &bare, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("bundle bytes depend on the watch list: %d vs %d bytes", buf.Len(), buf2.Len())
	}

	cfg := smallTrainConfig()
	cfg.Pipeline.Reduce2 = features.ReducePCA
	pm, err := Train(ds.FilterRuns(1, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pm.Fingerprint.Watched()); got != len(pm.RawSchema) {
		t.Fatalf("PCA pipeline watches %d of %d raw columns, want all", got, len(pm.RawSchema))
	}
}
