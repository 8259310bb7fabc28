package serving

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/features"
	"monitorless/internal/pcp"
)

// obsFor builds one observation where each instance gets row i of its
// own offset into rows.
func obsFor(t int, instances []string, rows [][]float64, tick int) pcp.WireObservation {
	obs := pcp.WireObservation{T: t}
	for k, id := range instances {
		obs.Samples = append(obs.Samples, pcp.WireSample{
			Instance: id,
			Values:   rows[(tick+k*3)%len(rows)],
		})
	}
	return obs
}

// reloadedModel round-trips the model through bundle bytes — the
// "byte-identical bundle" of the swap equivalence wall.
func reloadedModel(t *testing.T, m *core.Model) (*core.Model, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	b, err := core.LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return b.Model, b.Version
}

// TestHotSwapByteIdenticalBitIdentical is the swap equivalence wall: a
// mid-stream hot swap to a model reloaded from a byte-identical bundle
// must not perturb a single prediction bit. The control service never
// swaps; the swapped service must match it tick for tick, before and
// after the swap, while its generation stamp advances.
func TestHotSwapByteIdenticalBitIdentical(t *testing.T) {
	m, _ := sharedTestModel(t)
	control, err := New(Config{Model: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := New(Config{Model: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	instances := make([]string, 8)
	for i := range instances {
		instances[i] = fmt.Sprintf("app%d/s/%d", i%3, i)
	}

	const ticks, swapAt = 40, 20
	for tick := 0; tick < ticks; tick++ {
		if tick == swapAt {
			m2, ver := reloadedModel(t, m)
			ev, err := swapped.Swap(m2, ver)
			if err != nil {
				t.Fatalf("swap: %v", err)
			}
			if ev.Cold {
				t.Fatal("byte-identical bundle produced a cold swap")
			}
			if ev.Gen != 2 || ev.BundleVersion != ver || ev.Reason != "operator" {
				t.Fatalf("swap event: %+v (bundle version %d)", ev, ver)
			}
		}
		obs := obsFor(tick, instances, rows, tick)
		ra, err := control.Ingest(obs)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := swapped.Ingest(obs)
		if err != nil {
			t.Fatal(err)
		}
		for id, pa := range ra.Predictions {
			pb, ok := rb.Predictions[id]
			if !ok {
				t.Fatalf("tick %d: swapped service lost instance %s", tick, id)
			}
			if pb.Prob != pa.Prob || pb.Saturated != pa.Saturated {
				t.Fatalf("tick %d instance %s: swapped %v/%v vs control %v/%v — swap perturbed predictions",
					tick, id, pb.Prob, pb.Saturated, pa.Prob, pa.Saturated)
			}
			wantGen := uint64(1)
			if tick >= swapAt {
				wantGen = 2
			}
			if pb.ModelGen != wantGen {
				t.Fatalf("tick %d: prediction generation %d, want %d", tick, pb.ModelGen, wantGen)
			}
		}
		control.PutResponse(ra)
		swapped.PutResponse(rb)
	}
	if got := swapped.Stats(); got.Swaps != 1 || got.ModelGen != 2 {
		t.Errorf("stats after swap: %+v", got)
	}
	if hist := swapped.SwapHistory(); len(hist) != 1 || hist[0].Reason != "operator" {
		t.Errorf("swap history: %+v", hist)
	}
}

func TestSwapRejectsSchemaAndLayoutMismatch(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc := newTestService(t, 1, 1)

	// Different raw schema → refused before anything is touched.
	bad := *m
	bad.RawSchema = m.RawSchema.Clone()
	bad.RawSchema[0].Name = "kernel.all.cpu.borrowed"
	if _, err := svc.Swap(&bad, 0); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch: got %v", err)
	}

	if _, err := svc.Swap(nil, 0); err == nil {
		t.Fatal("nil model accepted")
	}
	if svc.active.Load().gen != 1 || len(svc.SwapHistory()) != 0 {
		t.Fatal("rejected swaps mutated service state")
	}
}

// TestColdSwapResetsInstanceState pins the cold path: a pipeline whose
// gob image differs (here: a metadata tweak on a decoded copy) cannot
// continue existing feature rings, so instance state is reset and
// rebuilt from subsequent traffic.
func TestColdSwapResetsInstanceState(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	instances := []string{"a/s/0", "a/s/1", "b/s/0"}
	for tick := 0; tick < 5; tick++ {
		resp, err := svc.IngestQuiet(obsFor(tick, instances, rows, tick))
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}
	if svc.Stats().Instances != 3 {
		t.Fatalf("expected 3 tracked instances, got %d", svc.Stats().Instances)
	}

	blob, err := m.Pipeline.EncodeGob()
	if err != nil {
		t.Fatal(err)
	}
	pipe2, err := features.DecodePipeline(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Same engineered layout and behavior, different gob bytes.
	pipe2.RawCols[0].Domain = "tweaked-for-cold-swap"
	m2 := *m
	m2.Pipeline = pipe2
	ev, err := svc.Swap(&m2, 0)
	if err != nil {
		t.Fatalf("cold swap: %v", err)
	}
	if !ev.Cold {
		t.Fatal("pipeline change not detected as cold swap")
	}
	if got := svc.Stats().Instances; got != 0 {
		t.Fatalf("cold swap kept %d instances, want 0", got)
	}
	if preds := svc.Predictions(); len(preds) != 0 {
		t.Fatalf("cold swap kept predictions: %v", preds)
	}
	// Traffic rebuilds state on the new generation.
	resp, err := svc.IngestQuiet(obsFor(9, instances, rows, 9))
	if err != nil {
		t.Fatal(err)
	}
	svc.PutResponse(resp)
	if got := svc.Stats(); got.Instances != 3 || got.ModelGen != 2 {
		t.Fatalf("post-cold-swap stats: %+v", got)
	}
}

// TestLifecycleSwapRace hammers ingest, observability reads, drift
// harvesting and warm hot swaps concurrently. Run under -race (the
// verify.sh lifecycle lane), it is the swap-locking proof; the final
// assertions check sample conservation across all generations.
func TestLifecycleSwapRace(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 4, DriftWindow: 128})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)

	const (
		writers = 4
		ticks   = 30
		perObs  = 6
	)
	// A twin model: same pipeline pointer, same forest — every swap is
	// warm, so writers are never reset mid-run.
	twin := *m
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // swap loop
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mm := m
			if i%2 == 0 {
				mm = &twin
			}
			if _, err := svc.Swap(mm, 0); err != nil {
				t.Errorf("swap churn: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // reader loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			svc.HarvestDrift()
			_ = svc.Apps()
			_ = svc.Stats()
			_ = svc.SwapHistory()
			if d := svc.Drift(); d != nil {
				_ = d.Scores()
			}
		}
	}()

	var writerWG sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		writerWG.Add(1)
		go func(wid int) {
			defer writerWG.Done()
			instances := make([]string, perObs)
			for k := range instances {
				instances[k] = fmt.Sprintf("w%d/s/%d", wid, k)
			}
			for tick := 0; tick < ticks; tick++ {
				resp, err := svc.IngestQuiet(obsFor(tick, instances, rows, tick))
				if err != nil {
					t.Errorf("writer %d: %v", wid, err)
					return
				}
				svc.PutResponse(resp)
			}
		}(wid)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	st := svc.Stats()
	if got, want := st.SamplesTotal, float64(writers*ticks*perObs); got != want {
		t.Errorf("samples conserved across swaps: got %v, want %v", got, want)
	}
	if st.Instances != writers*perObs {
		t.Errorf("instances = %d, want %d", st.Instances, writers*perObs)
	}
	if st.Swaps == 0 {
		t.Error("swap loop never completed a swap")
	}
}

// TestSwapChurnAllocations holds the ingest allocation budget while warm
// swaps land between batches — a swap must not deoptimize the hot path.
func TestSwapChurnAllocations(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	const batch = 32
	obs := pcp.WireObservation{T: 0}
	for i := 0; i < batch; i++ {
		obs.Samples = append(obs.Samples, pcp.WireSample{
			Instance: fmt.Sprintf("churn/a/%d", i),
			Values:   rows[i%len(rows)],
		})
	}
	twin := *m
	for w := 0; w < 3; w++ {
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		mm := m
		if i%2 == 0 {
			mm = &twin
		}
		i++
		if _, err := svc.Swap(mm, 0); err != nil {
			t.Fatal(err)
		}
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	})
	perSample := allocs / batch
	if perSample > 20 {
		t.Fatalf("ingest under swap churn allocates %.1f/sample (%v/batch+swap), want ≤ 20/sample", perSample, allocs)
	}
}

// TestDriftMonitorScoresShiftedTraffic drives a shifted distribution
// through ingest and checks the scores surface on the monitor, /model
// and /metrics.
func TestDriftMonitorScoresShiftedTraffic(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 2, DriftWindow: 32})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Drift() == nil {
		t.Fatal("fingerprinted model did not enable the drift monitor")
	}
	rows := rawRows(t)
	shifted := make([]float64, len(rows[0]))
	for tick := 0; tick < 40; tick++ {
		copy(shifted, rows[tick%len(rows)])
		for j := range shifted {
			shifted[j] += 50 // far outside the training distribution
		}
		resp, err := svc.IngestQuiet(pcp.WireObservation{T: tick, Samples: []pcp.WireSample{
			{Instance: "drifty/s/0", Values: shifted},
		}})
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}
	svc.HarvestDrift()
	scores := svc.Drift().Scores()
	if len(scores) != 1 || scores[0].App != "drifty" {
		t.Fatalf("drift scores: %+v", scores)
	}
	if scores[0].MaxPSI <= 0.25 {
		t.Errorf("a +50 shift on every metric scored PSI %v, want major drift", scores[0].MaxPSI)
	}
	if svc.Drift().Windows() == 0 {
		t.Error("no drift window completed")
	}

	srv := NewServer(svc)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`monitorless_drift_psi_max{app="drifty"}`,
		"monitorless_drift_windows_total",
		"monitorless_model_swaps_total",
		"monitorless_model_generation",
		"monitorless_model_bundle_legacy",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestModelEndpoint exercises GET /model (identity + fingerprint) and
// POST /model (operator hot swap).
func TestModelEndpoint(t *testing.T) {
	m, _ := sharedTestModel(t)
	// Every saved bundle is version 5 — the literal the response
	// expectations below pin.
	svc, err := New(Config{Model: m, BundleVersion: core.BundleVersion, DriftWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/model", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /model: %d %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`"gen": 1`, `"bundle_version": 5`, `"schema_hash"`, `"fingerprint"`,
		// The last field while no drift window has closed and no swap ran.
		fmt.Sprintf("\"watched_cols\": %d\n", len(m.Fingerprint.Watched())),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("GET /model missing %s in:\n%s", want, body[:min(len(body), 600)])
		}
	}

	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, m, 2); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/model", bytes.NewReader(buf.Bytes())))
	if rec.Code != 200 {
		t.Fatalf("POST /model: %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"reason": "operator"`) {
		t.Errorf("POST /model response: %s", rec.Body)
	}
	if svc.active.Load().gen != 2 {
		t.Errorf("operator swap did not land: gen %d", svc.active.Load().gen)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/model", strings.NewReader("not a bundle")))
	if rec.Code != 400 {
		t.Errorf("POST /model with garbage: %d, want 400", rec.Code)
	}

	// Healthz surfaces the new model identity fields.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	hb := rec.Body.String()
	for _, want := range []string{`"model_gen": 2`, `"bundle_version": 5`, `"schema_hash"`, `"legacy_bundle": false`, `"swaps": 1`} {
		if !strings.Contains(hb, want) {
			t.Errorf("/healthz missing %s in:\n%s", want, hb)
		}
	}
}
