package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
)

// gobBlob stands in for a nested gob.GobEncoder value, which gob hands to
// any GobDecoder as opaque bytes; the mirrors below repeat the bundle's,
// model's, forest's and tree's wire field names (gob matches by name).
type gobBlob []byte

func (b gobBlob) GobEncode() ([]byte, error) { return b, nil }

func (b *gobBlob) GobDecode(p []byte) error {
	*b = append(gobBlob(nil), p...)
	return nil
}

type bundleMirror struct {
	Magic       string
	Version     int
	SchemaHash  string
	TrainSeed   int64
	ModelBlob   []byte
	ModelSHA256 [sha256.Size]byte
}

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

// reencode decodes data into v, applies edit and encodes v again.
func reencode(t *testing.T, data []byte, v any, edit func()) gobBlob {
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

// TestModelEndpointRejectsMalformedForest: POST /model with a bundle
// whose first tree tests a column past the engineered row (a walk that
// would panic under the shard lock) or splits on a NaN threshold, or
// whose model blob no longer matches its checksum, is refused with 400,
// and the serving model and its generation stay and keep answering.
func TestModelEndpointRejectsMalformedForest(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, BundleVersion: core.BundleVersion})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	// editTree0 rewrites the bundle's first tree and re-signs the model
	// blob, so the refusal comes from the tree's own checks.
	editTree0 := func(edit func(tm *treeMirror)) []byte {
		var bw bundleMirror
		var mm modelMirror
		var fm forestMirror
		var tm treeMirror
		return reencode(t, buf.Bytes(), &bw, func() {
			bw.ModelBlob = reencode(t, bw.ModelBlob, &mm, func() {
				mm.Forest = reencode(t, mm.Forest, &fm, func() {
					fm.Trees[0] = reencode(t, fm.Trees[0], &tm, func() { edit(&tm) })
				})
			})
			bw.ModelSHA256 = sha256.Sum256(bw.ModelBlob)
		})
	}
	var bw bundleMirror
	cases := map[string][]byte{
		"feature index past the row": editTree0(func(tm *treeMirror) { tm.Features[0] = 1 << 20 }),
		"NaN threshold":              editTree0(func(tm *treeMirror) { tm.Thresholds[0] = math.NaN() }),
		"flipped model blob byte":    reencode(t, buf.Bytes(), &bw, func() { bw.ModelBlob[len(bw.ModelBlob)/2] ^= 0x10 }),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/model", bytes.NewReader(bad)))
			if rec.Code != 400 {
				t.Fatalf("POST /model: %d %s, want 400", rec.Code, rec.Body)
			}
			t.Log(strings.TrimSpace(rec.Body.String()))
			if mv := svc.active.Load(); mv.gen != 1 || mv.model != m {
				t.Fatalf("model generation %d (same model %v) after a refused swap, want 1 and the old model", mv.gen, mv.model == m)
			}
			resp, err := svc.Ingest(pcp.WireObservation{T: 0, Samples: []pcp.WireSample{
				{Instance: "shop/web/0", Values: rawRows(t)[0]},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if p := resp.Predictions["shop/web/0"]; p.ModelGen != 1 {
				t.Fatalf("prediction from generation %d, want 1", p.ModelGen)
			}
			svc.PutResponse(resp)
		})
	}
}
