package serving

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/pcp"
)

// streamMatchesBatch streams the eval runs tick-by-tick through the HTTP
// API and asserts every probability is bit-identical to the offline batch
// table path over the same rows. It returns the number of rows served and
// the server's final /metrics dump.
func streamMatchesBatch(t *testing.T, m *core.Model, ds *dataset.Dataset) (rows int, metrics string) {
	t.Helper()
	return streamMatchesBatchOpt(t, m, ds, false)
}

// streamMatchesBatchWire is streamMatchesBatch over the binary batch
// transport instead of JSON.
func streamMatchesBatchWire(t *testing.T, m *core.Model, ds *dataset.Dataset) (rows int, metrics string) {
	t.Helper()
	return streamMatchesBatchOpt(t, m, ds, true)
}

func streamMatchesBatchOpt(t *testing.T, m *core.Model, ds *dataset.Dataset, wire bool) (rows int, metrics string) {
	t.Helper()
	raw := ds.FilterRuns(1, 22).Frame()
	runs := runsOf(raw)
	preds, probs, err := m.PredictFrame(raw)
	if err != nil {
		t.Fatalf("PredictFrame: %v", err)
	}

	svc, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Wire = wire

	ids := map[int]string{}
	maxLen := 0
	for _, run := range runs {
		ids[run.ID] = fmt.Sprintf("eval/run%d/0", run.ID)
		if len(run.Rows) > maxLen {
			maxLen = len(run.Rows)
		}
	}

	for j := 0; j < maxLen; j++ {
		obs := pcp.WireObservation{T: j}
		for _, run := range runs {
			if j < len(run.Rows) {
				obs.Samples = append(obs.Samples, pcp.WireSample{Instance: ids[run.ID], Values: run.Rows[j]})
			}
		}
		resp, err := c.Ingest(obs)
		if err != nil {
			t.Fatalf("Ingest tick %d: %v", j, err)
		}
		anySat := false
		for _, run := range runs {
			if j >= len(run.Rows) {
				continue
			}
			rows++
			p, ok := resp.Predictions[ids[run.ID]]
			if !ok {
				t.Fatalf("tick %d: no prediction for %s", j, ids[run.ID])
			}
			if p.Prob != probs[run.ID][j] {
				t.Fatalf("run %d tick %d: streamed prob %v != batch prob %v (not bit-identical)",
					run.ID, j, p.Prob, probs[run.ID][j])
			}
			if want := preds[run.ID][j] == 1; p.Saturated != want {
				t.Fatalf("run %d tick %d: streamed saturated %v != batch %v", run.ID, j, p.Saturated, want)
			}
			anySat = anySat || p.Saturated
		}
		// §4 aggregation: the app's raw OR is exactly the OR over its
		// instances; with the default 1-of-1 debounce the alarm tracks it.
		st, ok := resp.Apps["eval"]
		if !ok {
			t.Fatalf("tick %d: app status missing", j)
		}
		if st.Raw != anySat || st.Saturated != anySat {
			t.Fatalf("tick %d: app OR %v/%v != instance OR %v", j, st.Raw, st.Saturated, anySat)
		}
	}
	metrics, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return rows, metrics
}

// TestHTTPStreamingMatchesBatchPredictions is the online/offline
// equivalence proof: raw metric rows streamed tick-by-tick through the
// HTTP API must yield bit-identical probabilities to the offline batch
// table path over the same rows. JSON transport preserves float64
// exactly (Go emits the shortest round-tripping representation), so any
// mismatch is a real divergence in the incremental feature math.
//
// The check runs on the shared exact-splitter model over JSON and over
// the binary transport, on a histogram-trained model that additionally
// passes through the bundle format — the flattened SoA trees must survive
// the gob round trip and serve the hot path unchanged — and on a PCA
// model through the bundle format.
func TestHTTPStreamingMatchesBatchPredictions(t *testing.T) {
	m, ds := sharedTestModel(t)

	t.Run("exact", func(t *testing.T) {
		// The run must have left non-zero serving metrics behind.
		rows, metrics := streamMatchesBatch(t, m, ds)
		want := fmt.Sprintf("monitorless_ingest_samples_total %d", rows)
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
		if !strings.Contains(metrics, fmt.Sprintf("monitorless_predict_seconds_count %d", rows)) {
			t.Error("predict latency histogram not populated")
		}
	})

	t.Run("wire-transport", func(t *testing.T) {
		// Same proof over the binary batch transport: the wire frame must
		// carry float64 values bitwise, so streamed probabilities stay
		// bit-identical to the offline batch path.
		rows, _ := streamMatchesBatchWire(t, m, ds)
		if rows == 0 {
			t.Fatal("no rows served")
		}
	})

	t.Run("hist-bundle", func(t *testing.T) {
		hm := histTestModel(t)
		var buf bytes.Buffer
		if err := core.SaveBundle(&buf, hm, 3); err != nil {
			t.Fatalf("SaveBundle: %v", err)
		}
		b, err := core.LoadBundle(&buf)
		if err != nil {
			t.Fatalf("LoadBundle: %v", err)
		}
		if b.Version != core.BundleVersion {
			t.Fatalf("bundle version %d, want %d", b.Version, core.BundleVersion)
		}
		streamMatchesBatch(t, b.Model, ds)
	})

	t.Run("pca-bundle", func(t *testing.T) {
		// The PCA kernel serves a loaded PCA bundle bit for bit.
		var buf bytes.Buffer
		if err := core.SaveBundle(&buf, pcaTestModel(t), 3); err != nil {
			t.Fatalf("SaveBundle: %v", err)
		}
		b, err := core.LoadBundle(&buf)
		if err != nil {
			t.Fatalf("LoadBundle: %v", err)
		}
		streamMatchesBatch(t, b.Model, ds)
	})
}

// TestBinaryIngestMatchesJSONIngest drives the identical observation
// stream into two fresh services — one over the JSON compat encoding,
// one over the binary batch frame — and requires every per-tick
// prediction to be bit-identical. Both encodings land on the same
// /ingest endpoint and the same server-side path; the only difference
// allowed is the bytes on the wire.
func TestBinaryIngestMatchesJSONIngest(t *testing.T) {
	m, ds := sharedTestModel(t)
	runs := runsOf(ds.FilterRuns(1, 23).Frame())

	type lane struct {
		wire bool
		c    *Client
		srv  *httptest.Server
	}
	lanes := make([]*lane, 2)
	for i, wire := range []bool{false, true} {
		svc, err := New(Config{Model: m, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(svc))
		defer srv.Close()
		c := NewClient(srv.URL)
		c.Wire = wire
		lanes[i] = &lane{wire: wire, c: c, srv: srv}
	}

	const ticks = 40
	for j := 0; j < ticks; j++ {
		obs := pcp.WireObservation{T: j}
		for _, run := range runs {
			if j < len(run.Rows) {
				obs.Samples = append(obs.Samples, pcp.WireSample{Instance: fmt.Sprintf("eq/run%d/0", run.ID), Values: run.Rows[j]})
			}
		}
		resps := make([]*IngestResponse, 2)
		for i, l := range lanes {
			resp, err := l.c.Ingest(obs)
			if err != nil {
				t.Fatalf("tick %d wire=%v: %v", j, l.wire, err)
			}
			resps[i] = resp
		}
		if len(resps[0].Predictions) == 0 {
			t.Fatalf("tick %d: empty predictions", j)
		}
		if !reflect.DeepEqual(resps[0].Predictions, resps[1].Predictions) {
			t.Fatalf("tick %d: JSON and binary predictions diverge:\n json %+v\n wire %+v",
				j, resps[0].Predictions, resps[1].Predictions)
		}
		if !reflect.DeepEqual(resps[0].Apps, resps[1].Apps) {
			t.Fatalf("tick %d: JSON and binary app decisions diverge", j)
		}
	}
}

// TestShardCountEquivalence proves the tick-batched prediction path is
// bit-identical to the offline path regardless of sharding: the same
// stream ingested into services sharded 1/4/16 ways must produce
// identical predictions, all equal to Model.PredictFrame over each
// instance's full history.
func TestShardCountEquivalence(t *testing.T) {
	m, ds := sharedTestModel(t)
	raw := ds.FilterRuns(1, 22, 23).Frame()
	runs := runsOf(raw)

	shardCounts := []int{1, 4, 16}
	svcs := make([]*Service, len(shardCounts))
	for i, n := range shardCounts {
		svc, err := New(Config{Model: m, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}

	// Offline reference: the batch pipeline and forest over every run.
	_, refProbs, err := m.PredictFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	runOf := map[string]int{}

	const ticks = 40
	for j := 0; j < ticks; j++ {
		obs := pcp.WireObservation{T: j}
		for _, run := range runs {
			if j >= len(run.Rows) {
				continue
			}
			id := fmt.Sprintf("sh/run%d/0", run.ID)
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: id, Values: run.Rows[j]})
			runOf[id] = run.ID
		}
		for i, svc := range svcs {
			resp, err := svc.Ingest(obs)
			if err != nil {
				t.Fatalf("shards=%d tick %d: %v", shardCounts[i], j, err)
			}
			for id, pred := range resp.Predictions {
				if want := refProbs[runOf[id]][j]; pred.Prob != want {
					t.Fatalf("shards=%d tick %d %s: batched prob %v != offline prob %v (not bit-identical)",
						shardCounts[i], j, id, pred.Prob, want)
				}
			}
			if len(resp.Predictions) != len(obs.Samples) {
				t.Fatalf("shards=%d tick %d: %d predictions for %d samples",
					shardCounts[i], j, len(resp.Predictions), len(obs.Samples))
			}
			svc.PutResponse(resp)
		}
	}

	// Final snapshots across shard counts must agree exactly.
	base := svcs[0].Predictions()
	for i := 1; i < len(svcs); i++ {
		if got := svcs[i].Predictions(); !reflect.DeepEqual(base, got) {
			t.Fatalf("final predictions diverge between shards=%d and shards=%d",
				shardCounts[0], shardCounts[i])
		}
	}
}
