package serving

import (
	"bytes"
	"encoding/gob"
	"net/http/httptest"
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
	Magic      string
	Version    int
	SchemaHash string
	TrainSeed  int64
	ModelBlob  []byte
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
// whose first tree tests a column past the engineered row — a walk that
// would panic under the shard lock — is refused with 400, and the
// serving model keeps answering.
func TestModelEndpointRejectsMalformedForest(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, BundleVersion: core.BundleVersionFor(m)})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	var bw bundleMirror
	var mm modelMirror
	var fm forestMirror
	var tm treeMirror
	bad := reencode(t, buf.Bytes(), &bw, func() {
		bw.ModelBlob = reencode(t, bw.ModelBlob, &mm, func() {
			mm.Forest = reencode(t, mm.Forest, &fm, func() {
				fm.Trees[0] = reencode(t, fm.Trees[0], &tm, func() { tm.Features[0] = 1 << 20 })
			})
		})
	})

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/model", bytes.NewReader(bad)))
	if rec.Code != 400 {
		t.Fatalf("POST /model with a malformed forest: %d %s, want 400", rec.Code, rec.Body)
	}
	if g := svc.active.Load().gen; g != 1 {
		t.Fatalf("model generation %d after a refused swap, want 1", g)
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
}
