package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"monitorless/internal/dataset"
	"monitorless/internal/frame"
	"monitorless/internal/ml/tree"
)

// frameDigest hashes a frame's schema, every column's float64 bits, its
// spans and its labels.
func frameDigest(fr *frame.Frame) string {
	h := sha256.New()
	h.Write([]byte(fr.Schema().Hash()))
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(fr.Rows()))
	for j := 0; j < fr.NumCols(); j++ {
		for _, v := range fr.Col(j) {
			put(math.Float64bits(v))
		}
	}
	for _, s := range fr.Spans() {
		put(uint64(s.ID))
		put(uint64(s.Start))
		put(uint64(s.End))
	}
	for _, l := range fr.Labels() {
		put(uint64(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateFrameMatchesGenerate pins that the benchmark's door onto the
// corpus (GenerateFrame, then TrainFrame) is the reproduction's route
// (Generate, then Train): the same frame bits, spans and labels, and a
// byte-identical bundle, training fingerprint included.
func TestGenerateFrameMatchesGenerate(t *testing.T) {
	var cfgs []dataset.RunConfig
	for _, c := range dataset.Table1() {
		if c.ID == 1 || c.ID == 22 {
			cfgs = append(cfgs, c)
		}
	}
	opt := dataset.GenOptions{Duration: 300, RampSeconds: 200, Seed: 9}
	rep, err := dataset.Generate(cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	fr, th, err := dataset.GenerateFrame(cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frameDigest(fr), frameDigest(rep.Dataset.Frame()); got != want {
		t.Fatalf("GenerateFrame digest %.12s…, Generate+Frame %.12s…", got, want)
	}
	if len(th) != len(rep.Thresholds) {
		t.Fatalf("%d thresholds, want %d", len(th), len(rep.Thresholds))
	}
	for id, lab := range rep.Thresholds {
		if th[id] != lab {
			t.Fatalf("run %d threshold differs", id)
		}
	}

	cfg := smallTrainConfig()
	cfg.Forest.Splitter = tree.Hist
	bundle := func(m *Model, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveBundle(&buf, m, 9); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	viaFrame := bundle(TrainFrame(fr, cfg))
	viaDataset := bundle(Train(rep.Dataset, cfg))
	if !bytes.Equal(viaFrame, viaDataset) {
		t.Fatalf("bundle via GenerateFrame (%d bytes) differs from bundle via Generate (%d bytes)", len(viaFrame), len(viaDataset))
	}
}

// fixedProbeFrame is the 64-row frame the streamed-bundle fixture's
// probabilities were recorded on: each column sweeps its training range
// [Min, Max] in a per-column order, one run, no labels.
func fixedProbeFrame(m *Model) *frame.Frame {
	fr := frame.NewDense(m.RawSchema, 64, []frame.Span{{ID: 0, Start: 0, End: 64}}, nil)
	for j, c := range m.Fingerprint.Cols {
		col := fr.Col(j)
		for i := range col {
			u := float64((i*37+j*11)%64) / 63
			col[i] = c.Min + (c.Max-c.Min)*u
		}
	}
	return fr
}

// TestStreamedBundleStillLoads: testdata/bundle_streamed.gob was written
// by a build whose fingerprint carried a Streamed flag (sketch-edged
// quantiles from an out-of-core corpus). gob drops that field on decode,
// so the bundle must still load, validate and predict the recorded
// probabilities bit for bit.
func TestStreamedBundleStillLoads(t *testing.T) {
	raw, err := os.ReadFile("testdata/bundle_streamed.gob")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if b.Version != BundleVersion {
		t.Errorf("version %d, want %d", b.Version, BundleVersion)
	}
	m := b.Model
	if err := m.Fingerprint.Validate(len(m.RawSchema)); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	want, err := os.ReadFile("testdata/bundle_streamed_probs.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(want))
	_, probs, err := m.PredictFrame(fixedProbeFrame(m))
	if err != nil {
		t.Fatal(err)
	}
	got := probs[0]
	if len(got) != len(lines) {
		t.Fatalf("%d probabilities, fixture has %d", len(got), len(lines))
	}
	for i, s := range lines {
		w, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("row %d: %v, fixture %v", i, got[i], w)
		}
	}
}
