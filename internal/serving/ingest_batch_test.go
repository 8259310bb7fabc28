package serving

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
)

var (
	histOnce  sync.Once
	histModel *core.Model
	histErr   error

	pcaOnce  sync.Once
	pcaModel *core.Model
	pcaErr   error
)

// pcaTestModel trains (once per test binary) a model whose first
// reduction is PCA on the shared dataset: it streams through the PCA
// kernel and engineers columns (PC01…) no other test model has.
func pcaTestModel(tb testing.TB) *core.Model {
	tb.Helper()
	_, ds := sharedTestModel(tb)
	pcaOnce.Do(func() {
		pcaModel, pcaErr = core.Train(ds, core.TrainConfig{
			Pipeline: features.Config{Normalize: true, Reduce1: features.ReducePCA, PCAVariance: 0.95, Seed: 7},
			Forest:   forest.Config{NumTrees: 10, MinSamplesLeaf: 10, Criterion: tree.Entropy, Seed: 7},
		})
	})
	if pcaErr != nil {
		tb.Fatalf("pca test model: %v", pcaErr)
	}
	return pcaModel
}

// histTestModel trains (once per test binary) a histogram-splitter model
// on the shared dataset. Hist-trained forests compile fully quantized, so
// this is the model that exercises the fused ingest route (engineered
// columns → uint8 code slab → tree walk); the shared exact-splitter model
// always takes the float scratch-frame route.
func histTestModel(tb testing.TB) *core.Model {
	tb.Helper()
	_, ds := sharedTestModel(tb)
	histOnce.Do(func() {
		histModel, histErr = core.Train(ds, core.TrainConfig{
			Pipeline: features.Config{
				Normalize:    true,
				Reduce1:      features.ReduceFilter,
				TimeFeatures: true,
				Products:     true,
				Reduce2:      features.ReduceFilter,
				FilterTopK:   30,
				FilterTrees:  20,
				Seed:         7,
			},
			Forest: forest.Config{
				NumTrees:       30,
				MinSamplesLeaf: 10,
				Criterion:      tree.Entropy,
				Splitter:       tree.Hist,
				Bins:           128,
				Seed:           7,
			},
			Threshold: 0.4,
		})
	})
	if histErr != nil {
		tb.Fatalf("hist test model: %v", histErr)
	}
	return histModel
}

// TestFusedIngestShardWorkerInvariance is the fused-route equivalence
// proof: a compiled model served through the code-slab path must produce
// bit-identical predictions to the float route (a copy of the model with
// the compiled form dropped, which the engine scores through the float
// walk over the same columns), at every shard count and forest worker
// count.
// Shard count changes the batch boundaries (which rows share a code
// slab); worker count changes how blocks fan out inside a walk. Neither
// may move a single bit.
func TestFusedIngestShardWorkerInvariance(t *testing.T) {
	m := histTestModel(t)
	_, ds := sharedTestModel(t)
	q := m.Forest.Quant()
	if q == nil {
		t.Fatal("hist model is not compiled; fused-route test premise broken")
	}
	runs := runsOf(ds.FilterRuns(1, 22, 23).Frame())

	// The float reference: same trees, compiled form dropped.
	floatForest := *m.Forest
	floatForest.DropQuant()
	floatModel := *m
	floatModel.Forest = &floatForest

	for _, par := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			q.SetParallelism(par)
			defer q.SetParallelism(0)

			ref, err := New(Config{Model: &floatModel, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			shardCounts := []int{1, 4, 16}
			fusedSvcs := make([]*Service, len(shardCounts))
			for i, n := range shardCounts {
				if fusedSvcs[i], err = New(Config{Model: m, Shards: n}); err != nil {
					t.Fatal(err)
				}
			}

			const ticks = 30
			for j := 0; j < ticks; j++ {
				obs := pcp.WireObservation{T: j}
				for _, run := range runs {
					if j < len(run.Rows) {
						obs.Samples = append(obs.Samples, pcp.WireSample{
							Instance: fmt.Sprintf("fused/run%d/0", run.ID),
							Values:   run.Rows[j],
						})
					}
				}
				want, err := ref.Ingest(obs)
				if err != nil {
					t.Fatalf("float route tick %d: %v", j, err)
				}
				for i, svc := range fusedSvcs {
					got, err := svc.Ingest(obs)
					if err != nil {
						t.Fatalf("fused shards=%d tick %d: %v", shardCounts[i], j, err)
					}
					for id, wp := range want.Predictions {
						gp, ok := got.Predictions[id]
						if !ok {
							t.Fatalf("fused shards=%d tick %d: missing %s", shardCounts[i], j, id)
						}
						if gp.Prob != wp.Prob || gp.Saturated != wp.Saturated {
							t.Fatalf("fused shards=%d tick %d %s: prob %v/%v != float route %v/%v (not bit-identical)",
								shardCounts[i], j, id, gp.Prob, gp.Saturated, wp.Prob, wp.Saturated)
						}
					}
					svc.PutResponse(got)
				}
				ref.PutResponse(want)
			}
		})
	}
}

// checkAggConsistency recomputes per-app instance/saturation aggregates
// from the Predictions snapshot and requires the incrementally maintained
// shard aggregates (surfaced through Apps and Stats) to match exactly.
func checkAggConsistency(t *testing.T, svc *Service) {
	t.Helper()
	preds := svc.Predictions()
	wantInst := map[string]int{}
	wantSat := map[string]bool{}
	for _, p := range preds {
		wantInst[p.App]++
		wantSat[p.App] = wantSat[p.App] || p.Saturated
	}
	apps := svc.Apps()
	if len(apps) < len(wantInst) {
		t.Fatalf("Apps() has %d entries, predictions span %d apps", len(apps), len(wantInst))
	}
	for app, st := range apps {
		if st.Instances != wantInst[app] {
			t.Fatalf("app %q aggregate instances %d, predictions say %d", app, st.Instances, wantInst[app])
		}
		if st.Raw != wantSat[app] {
			t.Fatalf("app %q aggregate raw OR %v, predictions say %v", app, st.Raw, wantSat[app])
		}
	}
	if st := svc.Stats(); st.Instances != len(preds) {
		t.Fatalf("Stats().Instances = %d, Predictions() has %d", st.Instances, len(preds))
	}
}

// TestMidBatchRejectionConsistency pins the atomic-batch rejection
// contract: a batch that fails validation mid-way (duplicate instance,
// wrong vector width) must leave no registration behind — no phantom
// zero-sample instances, no inflated per-app aggregates, no taken or
// leaked slots — and must not have absorbed any sample of the failing
// batch into feature rings. The next insertion takes the next slot.
func TestMidBatchRejectionConsistency(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	sh := &svc.shards[0]

	ingest := func(t *testing.T, tick int, ids ...string) *IngestResponse {
		t.Helper()
		obs := pcp.WireObservation{T: tick}
		for i, id := range ids {
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: id, Values: rows[(tick+i)%len(rows)]})
		}
		resp, err := svc.Ingest(obs)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		return resp
	}

	resp := ingest(t, 0, "rej/a/0", "rej/a/1")
	samples0 := resp.Predictions["rej/a/0"].Samples
	svc.PutResponse(resp)
	slotsBefore := len(sh.eng.IDs())

	// Duplicate mid-batch: a0 is re-sent after the never-seen a2, which
	// must not get registered.
	obs := pcp.WireObservation{T: 1, Samples: []pcp.WireSample{
		{Instance: "rej/a/0", Values: rows[1]},
		{Instance: "rej/a/2", Values: rows[2]},
		{Instance: "rej/a/0", Values: rows[3]},
	}}
	if _, err := svc.Ingest(obs); err == nil || !strings.Contains(err.Error(), "duplicate sample") {
		t.Fatalf("duplicate mid-batch: err = %v, want duplicate rejection", err)
	}
	if _, ok := svc.InstancePrediction("rej/a/2"); ok {
		t.Fatal("rejected batch left phantom instance rej/a/2")
	}
	if st := svc.Stats(); st.Instances != 2 {
		t.Fatalf("instances after rejected batch = %d, want 2", st.Instances)
	}
	if n := len(sh.eng.IDs()); n != slotsBefore {
		t.Fatalf("rejected batch took slots: registry has %d, want %d", n, slotsBefore)
	}
	checkAggConsistency(t, svc)

	// Width mismatch mid-batch: same contract through the other
	// validation error.
	obs = pcp.WireObservation{T: 2, Samples: []pcp.WireSample{
		{Instance: "rej/a/0", Values: rows[1]},
		{Instance: "rej/a/3", Values: rows[2][:len(rows[2])-1]},
	}}
	if _, err := svc.Ingest(obs); err == nil || !strings.Contains(err.Error(), "raw cols") {
		t.Fatalf("bad width mid-batch: err = %v, want width rejection", err)
	}
	if _, ok := svc.InstancePrediction("rej/a/3"); ok {
		t.Fatal("rejected batch left phantom instance rej/a/3")
	}
	checkAggConsistency(t, svc)

	// Rejected batches must not have stepped any feature ring: the next
	// clean tick advances a0 by exactly one sample.
	resp = ingest(t, 3, "rej/a/0", "rej/a/1")
	if got := resp.Predictions["rej/a/0"].Samples; got != samples0+1 {
		t.Fatalf("rej/a/0 samples = %d after 1 clean + 2 rejected ticks, want %d (rejected ticks absorbed state)", got, samples0+1)
	}
	svc.PutResponse(resp)

	// The next new instance takes the next slot: the rejected batches
	// left no hole in the registry.
	resp = ingest(t, 4, "rej/a/4")
	svc.PutResponse(resp)
	if got, ok := sh.eng.Lookup("rej/a/4"); !ok || got != int32(slotsBefore) {
		t.Fatalf("new instance got slot %d (ok=%v), want %d", got, ok, slotsBefore)
	}
	if n := len(sh.eng.IDs()); n != slotsBefore+1 {
		t.Fatalf("slot registry has %d slots, want %d", n, slotsBefore+1)
	}
	checkAggConsistency(t, svc)
}

// TestIngestAtomicAcrossShards pins the all-or-nothing contract of one
// observation across shards: a bad sample (wrong width, a duplicate or
// empty ID) routed to a later shard than good samples must reject the
// whole observation before any shard steps. No prediction, sample count,
// aggregate or instance gauge moves, no new ID is registered, and the
// next clean ticks equal those of a twin that never saw the bad
// observation.
func TestIngestAtomicAcrossShards(t *testing.T) {
	m, _ := sharedTestModel(t)
	rows := rawRows(t)
	svc, err := New(Config{Model: m, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(Config{Model: m, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}

	// The bad sample goes to the highest shard the IDs reach, so shards
	// that a shard-by-shard commit would step first hold good samples.
	var ids []string
	last := ""
	for k := 0; k < 12; k++ {
		id := fmt.Sprintf("atom/s%d/0", k)
		ids = append(ids, id)
		if last == "" || svc.ShardOf(id) > svc.ShardOf(last) {
			last = id
		}
	}
	fresh := "atom/new/0" // must not get registered
	for _, id := range []string{ids[0], fresh} {
		if svc.ShardOf(id) >= svc.ShardOf(last) {
			t.Fatalf("%s routes to shard %d, not before the bad sample's %d", id, svc.ShardOf(id), svc.ShardOf(last))
		}
	}
	obsAt := func(tick int) pcp.WireObservation {
		obs := pcp.WireObservation{T: tick}
		for k, id := range ids {
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: id, Values: rows[(tick+7*k)%len(rows)]})
		}
		return obs
	}
	ingestBoth := func(tick int) {
		t.Helper()
		var resps [2]*IngestResponse
		for i, s := range []*Service{svc, twin} {
			resp, err := s.Ingest(obsAt(tick))
			if err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
			resps[i] = resp
		}
		if !reflect.DeepEqual(resps[0], resps[1]) {
			t.Fatalf("tick %d: service %+v, never-failed twin %+v", tick, resps[0], resps[1])
		}
		svc.PutResponse(resps[0])
		twin.PutResponse(resps[1])
	}
	for tick := 0; tick < 5; tick++ {
		ingestBoth(tick)
	}

	bad := map[string]func(obs *pcp.WireObservation){
		"wrong width": func(obs *pcp.WireObservation) {
			k := slices.Index(ids, last)
			obs.Samples[k].Values = obs.Samples[k].Values[:3]
		},
		"duplicate": func(obs *pcp.WireObservation) {
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: last, Values: rows[0]})
		},
		"empty instance ID": func(obs *pcp.WireObservation) {
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: "", Values: rows[0]})
		},
		"new instance, wrong width": func(obs *pcp.WireObservation) {
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: last + "x", Values: rows[0][:3]})
		},
	}
	for name, corrupt := range bad {
		obs := obsAt(100)
		obs.Samples = append(obs.Samples, pcp.WireSample{Instance: fresh, Values: rows[1]})
		corrupt(&obs)
		if _, err := svc.Ingest(obs); err == nil {
			t.Fatalf("%s: observation accepted", name)
		}
		if got, want := svc.Predictions(), twin.Predictions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rejected observation moved predictions:\n got %+v\nwant %+v", name, got, want)
		}
		if _, ok := svc.InstancePrediction(fresh); ok {
			t.Fatalf("%s: rejected observation registered %s", name, fresh)
		}
		if got, want := svc.Apps(), twin.Apps(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rejected observation moved aggregates:\n got %+v\nwant %+v", name, got, want)
		}
		if got, want := svc.Stats().SamplesTotal, twin.Stats().SamplesTotal; got != want {
			t.Fatalf("%s: samples total %v, twin %v", name, got, want)
		}
		for _, g := range []string{"monitorless_instances", "monitorless_instance_state_bytes"} {
			if got, want := scrapeGauge(t, svc, g), scrapeGauge(t, twin, g); got != want {
				t.Fatalf("%s: %s = %v, twin %v", name, g, got, want)
			}
		}
		checkAggConsistency(t, svc)
	}

	for tick := 5; tick < 5+2*m.WindowSize(); tick++ {
		ingestBoth(tick)
	}
	checkAggConsistency(t, svc)
}

// scrapeGauge extracts one un-labeled series value from a registry dump.
func scrapeGauge(t *testing.T, svc *Service, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := svc.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics missing %s", name)
	return 0
}

// TestInstanceStateBytesGauge pins the memory-visibility contract: the
// instance-state gauge reports the summed allocated ring capacity of the
// per-shard SoA slabs, grows with the tracked population, and matches the
// slabs' own accounting exactly.
func TestInstanceStateBytesGauge(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)

	feed := func(tick, n int) {
		obs := pcp.WireObservation{T: tick}
		for i := 0; i < n; i++ {
			obs.Samples = append(obs.Samples, pcp.WireSample{
				Instance: fmt.Sprintf("bytes/b/%d", i),
				Values:   rows[(tick+i)%len(rows)],
			})
		}
		resp, err := svc.IngestQuiet(obs)
		if err != nil {
			t.Fatal(err)
		}
		svc.PutResponse(resp)
	}

	feed(0, 8)
	small := scrapeGauge(t, svc, "monitorless_instance_state_bytes")
	if small <= 0 {
		t.Fatalf("instance_state_bytes = %v after ingest, want > 0", small)
	}
	feed(1, 256)
	large := scrapeGauge(t, svc, "monitorless_instance_state_bytes")
	if large <= small {
		t.Fatalf("instance_state_bytes did not grow with the fleet: %v → %v", small, large)
	}
	var want float64
	for si := range svc.shards {
		want += float64(svc.shards[si].bytes.Load())
	}
	if large != want {
		t.Fatalf("gauge %v != summed slab accounting %v", large, want)
	}
	perInst := large / 256
	if perInst <= 0 {
		t.Fatalf("bytes/instance = %v, want > 0", perInst)
	}
}

// TestIngestFallbackCounter pins the monitorless_stream_fallback_rows_total
// series the benchmark reads: it stays registered and reads 0 after
// ingest, since every streaming step is a columnar kernel.
func TestIngestFallbackCounter(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := rawRows(t)
	obs := pcp.WireObservation{T: 0}
	for i := 0; i < 8; i++ {
		obs.Samples = append(obs.Samples, pcp.WireSample{
			Instance: fmt.Sprintf("fb/f/%d", i), Values: rows[i%len(rows)],
		})
	}
	resp, err := svc.IngestQuiet(obs)
	if err != nil {
		t.Fatal(err)
	}
	svc.PutResponse(resp)
	if got := scrapeGauge(t, svc, "monitorless_stream_fallback_rows_total"); got != 0 {
		t.Fatalf("fallback rows = %v, want 0", got)
	}
}

// TestPCAModelRefused: a PCA model starts a service of its own (the PCA
// step streams through its kernel), but POST /model with a PCA bundle
// onto a service serving a non-PCA model engineers other columns, so it
// answers 400 naming the layout, keeps the serving model and its
// generation, and counts the refused swap.
func TestPCAModelRefused(t *testing.T) {
	m, _ := sharedTestModel(t)
	pm := pcaTestModel(t)
	if _, err := New(Config{Model: pm}); err != nil {
		t.Fatalf("New on a PCA model: %v", err)
	}

	svc, err := New(Config{Model: m, BundleVersion: core.BundleVersion})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, pm, 1); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewServer(svc).ServeHTTP(rec, httptest.NewRequest("POST", "/model", &buf))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "engineered layout") {
		t.Fatalf("POST /model with a PCA bundle: %d %s, want 400 naming the layout", rec.Code, rec.Body)
	}
	if mv := svc.active.Load(); mv.gen != 1 || mv.model != m || len(svc.SwapHistory()) != 0 {
		t.Fatalf("serving generation %d after a refused swap, want 1 and the old model", mv.gen)
	}
	if got := scrapeGauge(t, svc, "monitorless_model_swap_rejects_total"); got != 1 {
		t.Fatalf("swap rejects = %v, want 1", got)
	}
}
