package serving

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"monitorless/internal/pcp"
)

// testObservation builds one observation with n instances of app "tea"
// carrying the model's expected vector width.
func testObservation(t *testing.T, svc *Service, tick, n int) pcp.WireObservation {
	t.Helper()
	width := len(svc.RawNames())
	obs := pcp.WireObservation{T: tick}
	for i := 0; i < n; i++ {
		vec := make([]float64, width)
		for j := range vec {
			vec[j] = float64((i+1)*(j%7)) * 0.1
		}
		obs.Samples = append(obs.Samples, pcp.WireSample{Instance: instanceID(i), Values: vec})
	}
	return obs
}

func instanceID(i int) string {
	return "tea/auth/" + string(rune('0'+i))
}

func TestHTTPIngestPredictForget(t *testing.T) {
	svc := newTestService(t, 1, 1)
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	c := NewClient(srv.URL)

	// Schema endpoint advertises the model's raw layout.
	schema, err := c.Schema()
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	if schema.SchemaHash != svc.SchemaHash() || len(schema.Metrics) == 0 {
		t.Fatalf("schema response wrong: %+v", schema)
	}

	// Two ticks of three instances.
	for tick := 0; tick < 2; tick++ {
		resp, err := c.Ingest(testObservation(t, svc, tick, 3))
		if err != nil {
			t.Fatalf("Ingest tick %d: %v", tick, err)
		}
		if len(resp.Predictions) != 3 {
			t.Fatalf("predictions = %d, want 3", len(resp.Predictions))
		}
		for id, p := range resp.Predictions {
			if p.Samples != tick+1 {
				t.Fatalf("%s samples = %d at tick %d", id, p.Samples, tick)
			}
			if p.App != "tea" || p.T != tick {
				t.Fatalf("prediction grouping wrong: %+v", p)
			}
		}
		if _, ok := resp.Apps["tea"]; !ok {
			t.Fatalf("app status missing: %+v", resp.Apps)
		}
	}

	// Per-instance and bulk predict agree.
	pred, ok := svc.InstancePrediction(instanceID(0))
	if !ok {
		t.Fatal("instance missing after ingest")
	}
	all, err := fetchPredictions(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := all[instanceID(0)]; got != pred {
		t.Fatalf("bulk predict %+v != instance predict %+v", got, pred)
	}

	// Healthz reflects the tracked state.
	stats, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 3 || stats.Apps != 1 || stats.SamplesTotal != 6 {
		t.Fatalf("stats = %+v", stats)
	}

	// Forget drops state and reports it knew the instance; a second
	// delete 404s.
	if !c.Forget(instanceID(1)) {
		t.Fatal("forget of a known instance reported it unknown")
	}
	if _, ok := svc.InstancePrediction(instanceID(1)); ok {
		t.Fatal("forget did not drop instance")
	}
	if c.Forget(instanceID(1)) {
		t.Fatal("second forget reported the instance known")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/instances?id="+instanceID(1), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-forget status = %d, want 404", resp.StatusCode)
	}

	// Metrics expose non-zero ingest counters and HTTP families.
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"monitorless_ingest_samples_total 6",
		"monitorless_ingest_observations_total 2",
		"monitorless_predict_seconds_count 6",
		`monitorless_http_requests_total{code="200",path="/ingest"} 2`,
		"monitorless_instances 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func fetchPredictions(c *Client) (map[string]Prediction, error) {
	var out map[string]Prediction
	err := c.get("/predict", &out)
	return out, err
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	svc := newTestService(t, 1, 1)
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	// Samples carry platform metrics only: a "label" key is an unknown
	// field, rejected and counted as malformed like any other.
	if code := post(`{"t":0,"samples":[{"instance":"a/x/0","values":[1],"label":1}]}`); code != http.StatusBadRequest {
		t.Errorf("labeled sample → %d, want 400", code)
	}
	if metrics, _ := NewClient(srv.URL).Metrics(); !strings.Contains(metrics, `monitorless_ingest_rejects_total{reason="malformed"} 1`) {
		t.Error("labeled sample not counted as malformed")
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON → %d, want 400", code)
	}
	if code := post(`{"t":0,"samples":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty samples → %d, want 400", code)
	}
	if code := post(`{"t":0,"unknown_field":1,"samples":[{"instance":"a/x/0","values":[1]}]}`); code != http.StatusBadRequest {
		t.Errorf("unknown field → %d, want 400", code)
	}
	// Wrong schema hash → 409 Conflict.
	if code := post(`{"t":0,"schema_hash":"deadbeef","samples":[{"instance":"a/x/0","values":[1]}]}`); code != http.StatusConflict {
		t.Errorf("schema mismatch → %d, want 409", code)
	}
	// Wrong vector width → 400, and the rejected sample must not leave a
	// phantom zero-sample instance behind.
	if code := post(`{"t":0,"samples":[{"instance":"a/x/0","values":[1,2,3]}]}`); code != http.StatusBadRequest {
		t.Errorf("bad width → %d, want 400", code)
	}
	if resp, err := http.Get(srv.URL + "/predict?instance=a/x/0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("rejected ingest left phantom instance a/x/0: /predict → %d, want 404", resp.StatusCode)
		}
	}
	// Duplicate instance → 400.
	if code := post(`{"t":0,"samples":[{"instance":"a/x/0","values":[1]},{"instance":"a/x/0","values":[1]}]}`); code != http.StatusBadRequest {
		t.Errorf("duplicate instance → %d, want 400", code)
	}

	// Wrong methods.
	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/ingest"},
		{http.MethodPost, "/predict"},
		{http.MethodPost, "/apps"},
		{http.MethodGet, "/instances"},
		{http.MethodPost, "/metrics"},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s → %d, want 405", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Unknown instance predict → 404.
	resp, err := http.Get(srv.URL + "/predict?instance=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown instance → %d, want 404", resp.StatusCode)
	}

	// Reject counters moved.
	metrics, _ := NewClient(srv.URL).Metrics()
	if !strings.Contains(metrics, `monitorless_ingest_rejects_total{reason="schema"} 1`) {
		t.Error("schema reject not counted")
	}
}

func TestAppDebounceOverHTTP(t *testing.T) {
	// A 2-of-3 debouncer: one saturated tick must not raise the app alarm,
	// two within the window must. Drive the service directly with forced
	// predictions via a synthetic single-instance app whose saturation we
	// control through the debouncer unit — here we just verify the wiring:
	// the debounced state lags the raw OR.
	svc := newTestService(t, 2, 3)
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	c := NewClient(srv.URL)

	raws := []bool{}
	debs := []bool{}
	for tick := 0; tick < 6; tick++ {
		resp, err := c.Ingest(testObservation(t, svc, tick, 2))
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Apps["tea"]
		raws = append(raws, st.Raw)
		debs = append(debs, st.Saturated)
		if st.Instances != 2 {
			t.Fatalf("instances = %d", st.Instances)
		}
	}
	// Wiring invariant: the alarm can only be raised when the window holds
	// at least one raw positive; with k=2 a lone first positive never
	// raises immediately.
	for i := range debs {
		if debs[i] && i == 0 && raws[0] {
			t.Fatal("debounced alarm raised on first raw positive with k=2")
		}
	}
}

// TestHTTPRejectsNonFiniteFrame pins that a binary frame carrying one NaN
// or ±Inf is a 400 counted as malformed, and that it leaves the
// instance's state alone: a non-finite value in the X-AVG prefix ring
// would poison its windowed averages for good.
func TestHTTPRejectsNonFiniteFrame(t *testing.T) {
	svc := newTestService(t, 1, 1)
	srv := NewServer(svc)
	post := func(obs pcp.WireObservation) *httptest.ResponseRecorder {
		t.Helper()
		b, err := AppendWire(nil, obs)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b))
		req.Header.Set("Content-Type", WireContentType)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	for tick := 0; tick < 2; tick++ {
		if rec := post(testObservation(t, svc, tick, 2)); rec.Code != http.StatusOK {
			t.Fatalf("tick %d: %d %s", tick, rec.Code, rec.Body)
		}
	}
	id := instanceID(1)
	before, ok := svc.InstancePrediction(id)
	if !ok {
		t.Fatal("instance missing after ingest")
	}
	for k, v := range []float64{math.NaN(), math.Inf(1)} {
		obs := testObservation(t, svc, 2+k, 2)
		obs.Samples[1].Values[3] = v
		if rec := post(obs); rec.Code != http.StatusBadRequest {
			t.Fatalf("frame with %v: %d, want 400", v, rec.Code)
		}
		after, _ := svc.InstancePrediction(id)
		if after.Samples != before.Samples || math.Float64bits(after.Prob) != math.Float64bits(before.Prob) {
			t.Fatalf("frame with %v moved %s: %+v → %+v", v, id, before, after)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `monitorless_ingest_rejects_total{reason="malformed"} 2`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics missing %q", want)
	}
}

// TestHTTPMetricsLabelCardinality pins that request metrics are labelled
// by route: a thousand distinct unknown paths share one "other" series.
func TestHTTPMetricsLabelCardinality(t *testing.T) {
	svc := newTestService(t, 1, 1)
	srv := NewServer(svc)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		path := fmt.Sprintf("/%x/%d", rng.Uint64(), i)
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	series := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		for _, fam := range []string{"monitorless_http_requests_total{", "monitorless_http_request_seconds_count{"} {
			if strings.HasPrefix(line, fam) {
				series[fam]++
			}
		}
	}
	for fam, n := range series {
		if n > 3 {
			t.Errorf("%s has %d series after 1000 unknown paths, want ≤ 3", fam, n)
		}
	}
	for _, want := range []string{
		`monitorless_http_requests_total{code="404",path="other"} 1000`,
		`monitorless_http_requests_total{code="200",path="/healthz"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
