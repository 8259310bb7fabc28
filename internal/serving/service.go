// Package serving is the online inference half of the paper's §2
// architecture as a network service: agents POST per-instance metric
// vectors each tick, the service folds them into incremental per-instance
// feature state (O(features) per sample, bit-identical to the offline
// batch pipeline), classifies each instance with the trained monitorless
// model, and aggregates instance predictions into per-application
// saturation decisions with a logical OR (§4) plus k-of-n debouncing so
// an autoscaler consuming the decisions does not flap on single-tick
// prediction noise.
//
// The service is built for fleet-sized deployments: per-instance state is
// sharded by an FNV-1a hash of the instance ID across a power-of-two
// number of independently locked shards, each shard scores its slice of a
// tick as one batch on its own core.Engine, and the hot counters live in
// per-shard padded cells aggregated only at /metrics scrape time.
// Per-application aggregation keeps per-shard (instances, saturated)
// counts that are merged at read time, so ingesting a sample is O(1) in
// the fleet size.
//
// The Service is the one fleet-state holder: cmd/serve wraps it in HTTP,
// and the Table 7 autoscaler, the EdgeAgent (§5's agent-side inference)
// and the root facade drive it in-process.
package serving

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/lifecycle"
	"monitorless/internal/pcp"
)

// ErrSchemaMismatch reports a wire observation whose schema hash does not
// match the model's raw-metric schema.
var ErrSchemaMismatch = errors.New("serving: schema hash mismatch")

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 8

// maxShards bounds the shard count (a power of two at most this large).
const maxShards = 1 << 10

// Config parameterizes a Service.
type Config struct {
	// Model is the trained classifier (required).
	Model *core.Model
	// DebounceK / DebounceN: an application's debounced alarm raises when
	// at least K of its last N raw OR decisions were saturated. N ≤ 0
	// selects 1-of-1 (raw passthrough).
	DebounceK, DebounceN int
	// ClearBelow: the alarm clears when fewer than this many of the last
	// N raw decisions were saturated (default 1 — a fully quiet window).
	ClearBelow int
	// Shards is the number of instance-state shards, rounded up to a
	// power of two (0 selects DefaultShards). Instance→shard routing is a
	// pure function of the instance ID, invariant across restarts.
	Shards int
	// DriftWindow is the per-app drift window in samples (0 selects
	// lifecycle.DefaultDriftWindow; negative disables drift monitoring).
	// Monitoring also requires the model to carry a training fingerprint.
	DriftWindow int
	// BundleVersion records the bundle format version the model came from
	// (0 when the model was constructed in-process rather than loaded).
	BundleVersion int
}

// Prediction is one instance's latest inference.
type Prediction struct {
	// Prob is P(saturated).
	Prob float64 `json:"prob"`
	// Saturated applies the model threshold.
	Saturated bool `json:"saturated"`
	// T is the observation second of the latest sample.
	T int `json:"t"`
	// Samples counts the raw vectors folded into this instance's state.
	Samples int `json:"samples"`
	// App and Service group the instance for aggregation.
	App     string `json:"app"`
	Service string `json:"service,omitempty"`
	// ModelGen is the model generation that produced this prediction. A
	// shard batch loads the active model once, so every prediction in a
	// batch carries the same generation even if a swap lands mid-batch.
	ModelGen uint64 `json:"model_gen"`
}

// AppStatus is one application's aggregated decision.
type AppStatus struct {
	// Saturated is the debounced k-of-n alarm.
	Saturated bool `json:"saturated"`
	// Raw is the instantaneous OR over instance predictions (§4).
	Raw bool `json:"raw_saturated"`
	// SaturatedInstances lists the instances driving Raw, sorted. It is
	// only materialized by Apps() reads — ingest responses report the
	// decision without enumerating the fleet.
	SaturatedInstances []string `json:"saturated_instances,omitempty"`
	// Instances counts the application's tracked instances.
	Instances int `json:"instances"`
	// WindowCount is how many of the last N raw decisions were saturated.
	WindowCount int `json:"window_count"`
}

// IngestResponse reports the predictions refreshed by one observation.
// Responses are pooled: HTTP handlers and throughput-sensitive in-process
// callers return them with Service.PutResponse after use.
type IngestResponse struct {
	T int `json:"t"`
	// Samples counts the vectors folded by this observation.
	Samples int `json:"samples"`
	// Predictions covers the instances present in the observation
	// (omitted in quiet mode).
	Predictions map[string]Prediction `json:"predictions,omitempty"`
	// Apps covers the applications those instances belong to (omitted in
	// quiet mode).
	Apps map[string]AppStatus `json:"apps,omitempty"`
}

// Stats summarizes the service for health reporting.
type Stats struct {
	Instances    int     `json:"instances"`
	Apps         int     `json:"apps"`
	Shards       int     `json:"shards"`
	SamplesTotal float64 `json:"samples_total"`
	SchemaHash   string  `json:"schema_hash"`
	ModelTrees   int     `json:"model_trees"`
	Threshold    float64 `json:"threshold"`
	// ModelGen is the active model generation (1 at startup, +1 per swap).
	ModelGen uint64 `json:"model_gen"`
	// BundleVersion is the active model's bundle format version (0 when
	// built in-process).
	BundleVersion int `json:"bundle_version"`
	// LegacyBundle reports a model without a training fingerprint — drift
	// detection is disabled for it.
	LegacyBundle bool `json:"legacy_bundle"`
	// QuantPredict reports whether the active model's forest routes batch
	// prediction through the compiled quantized path.
	QuantPredict bool `json:"quant_predict"`
	// Swaps counts completed hot swaps since startup.
	Swaps uint64 `json:"swaps"`
}

// modelVersion is one immutable generation of the serving model. The
// service publishes the active version through an atomic pointer; a
// shard batch loads it exactly once, so in-flight batches finish on the
// model they started with while a swap lands.
type modelVersion struct {
	model     *core.Model
	streamer  *features.Streamer
	threshold float64
	fp        *frame.Fingerprint
	gen       uint64
	// pipeGob is the pipeline's gob image, the warm/cold swap
	// discriminator: byte-identical pipelines engineer features
	// identically, so per-instance stream state carries over.
	pipeGob   []byte
	bundleVer int
}

// SwapEvent records one completed hot swap.
type SwapEvent struct {
	// Gen is the generation the swap installed.
	Gen uint64 `json:"gen"`
	// At is the wall-clock swap time.
	At time.Time `json:"at"`
	// Reason is the swap's provenance; every swap is an operator's
	// POST /model, so it always reads "operator".
	Reason string `json:"reason"`
	// Cold reports that the pipeline changed, so per-instance streaming
	// state was reset (warm swaps keep it and stay bit-identical).
	Cold bool `json:"cold"`
	// Trees and TrainSamples describe the installed model.
	Trees        int `json:"trees"`
	TrainSamples int `json:"train_samples"`
	// BundleVersion is the installed bundle's format version (0 for
	// in-process models).
	BundleVersion int `json:"bundle_version,omitempty"`
}

// maxSwapHistory bounds the retained swap event log.
const maxSwapHistory = 64

// shardApp is one application's aggregate within a single shard: how many
// tracked instances name the app, and how many of those are currently
// predicted saturated. App-level status merges these counts across
// shards at read time.
type shardApp struct {
	instances int
	saturated int
}

// pendSample carries one routed sample between the feature phase and the
// prediction phase of a shard batch.
type pendSample struct {
	slot  int32
	id    string
	app   string
	svc   string
	isNew bool
}

// shard is one lock domain of per-instance state: a core.Engine (ID→slot
// registry, ring-state slab, step and predict scratch) plus what serving
// keeps per slot around it — the latest predictions — and the shard's
// per-app aggregates. All batch scratch is reused across ticks: a
// steady-state shard batch allocates nothing.
type shard struct {
	mu    sync.Mutex
	eng   *core.Engine
	preds []Prediction // slot -> latest prediction
	apps  map[string]*shardApp

	slots []int32
	raws  [][]float64
	pend  []pendSample
	// bytes mirrors eng.StateBytes() so the instance-state gauge reads it
	// without taking the shard lock.
	bytes atomic.Int64
	// drift accumulates per-app raw-feature statistics under the shard
	// lock; HarvestDrift drains it into the service-level monitor.
	drift *lifecycle.Cell
}

// register takes a slot for a new instance and seeds the per-slot arrays
// with its provisional prediction. Callers hold the shard lock.
func (sh *shard) register(id string, pred Prediction) int32 {
	slot, _ := sh.eng.Acquire(id)
	if int(slot) == len(sh.preds) {
		sh.preds = append(sh.preds, pred)
	} else {
		sh.preds[slot] = pred
	}
	return slot
}

// bind points the shard's engine at the model generation a batch (or a
// cold swap) loaded. The engine drops its registry when the streamer —
// hence the ring geometry — changed; the per-slot arrays and per-app
// aggregates indexed by that registry restart with it, so slab geometry
// and the streamer stepping it can never diverge (warm swaps reuse the
// streamer pointer, making pointer identity exactly the warm/cold
// discriminator). Callers hold the shard lock and zero the instance
// counter when bind reports a reset.
func (sh *shard) bind(mv *modelVersion) bool {
	if !sh.eng.Bind(mv.model, mv.streamer) {
		return false
	}
	sh.preds = sh.preds[:0]
	clear(sh.apps)
	sh.bytes.Store(sh.eng.StateBytes())
	return true
}

// paddedInt is a cache-line-padded atomic instance counter (one per
// shard), readable by the /metrics gauge without taking shard locks.
type paddedInt struct {
	v atomic.Int64
	_ [7]uint64
}

// appEntry is one application's cross-shard state: the debouncer plus the
// cached gauge series (resolved once, so ingest never takes the registry
// lock).
type appEntry struct {
	deb  *Debouncer
	gSat *Gauge
	gRaw *Gauge
}

// routeScratch is the pooled per-request routing state: per-shard sample
// index lists, the touched-app set, and the request's instance IDs keyed
// by their routing hash (value: the first sample index) for duplicate
// detection.
type routeScratch struct {
	perShard [][]int32
	touched  map[string]struct{}
	seen     map[uint64]int32
}

// Service holds the model, sharded per-instance streaming state, and
// cross-shard per-app debouncers. All methods are safe for concurrent
// use; lock order is appsMu before shard.mu; the drift monitor's lock
// nests inside shard.mu and is never held around either.
type Service struct {
	// active is the serving model generation; swapped atomically, loaded
	// once per shard batch.
	active     atomic.Pointer[modelVersion]
	schemaHash string
	engNames   []string // engineered column layout every generation must match
	cfg        Config

	shards []shard
	mask   uint64
	nInst  []paddedInt

	appsMu sync.Mutex
	apps   map[string]*appEntry

	// swapMu serializes Swap calls and guards the swap history.
	swapMu  sync.Mutex
	history []SwapEvent
	nSwaps  atomic.Uint64

	// drift is nil when the model has no fingerprint or DriftWindow < 0.
	drift *lifecycle.Monitor

	reg       *Registry
	respPool  sync.Pool
	routePool sync.Pool

	cSamples       *ShardedCounter
	hPredict       *ShardedHistogram
	hPredictStage  *ShardedHistogram
	mObservations  *Counter
	mSchemaRejects *Counter
	mBadRequests   *Counter
	mSwaps         *Counter
	mSwapRejects   *Counter
}

// shardCount rounds the configured count up to a bounded power of two.
func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIndex routes an instance ID to a shard: FNV-1a 64 masked to the
// power-of-two shard count. It is a pure function of the ID bytes —
// stable across restarts, processes and architectures — so external
// systems may pre-partition traffic by the same hash.
func shardIndex(id string, mask uint64) uint64 { return idHash(id) & mask }

// idHash is the FNV-1a 64 hash of an instance ID.
func idHash(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// New builds a service around a trained model. It fails if the model's
// pipeline predates streaming support.
func New(cfg Config) (*Service, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serving: nil model")
	}
	streamer, err := cfg.Model.Streamer()
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	pipeGob, err := cfg.Model.Pipeline.EncodeGob()
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	n := shardCount(cfg.Shards)
	reg := NewRegistry()
	s := &Service{
		schemaHash:    cfg.Model.RawSchema.Hash(),
		engNames:      cfg.Model.Pipeline.OutputNames(),
		cfg:           cfg,
		shards:        make([]shard, n),
		mask:          uint64(n - 1),
		nInst:         make([]paddedInt, n),
		apps:          make(map[string]*appEntry),
		reg:           reg,
		cSamples:      NewShardedCounter(n),
		hPredict:      NewShardedHistogram(n, nil),
		hPredictStage: NewShardedHistogram(n, predictStageBuckets),
		mObservations: reg.Counter("monitorless_ingest_observations_total",
			"Observation batches ingested.", nil),
		mSchemaRejects: reg.Counter("monitorless_ingest_rejects_total",
			"Observations rejected before inference.", Labels{"reason": "schema"}),
		mBadRequests: reg.Counter("monitorless_ingest_rejects_total",
			"Observations rejected before inference.", Labels{"reason": "malformed"}),
		mSwaps: reg.Counter("monitorless_model_swaps_total",
			"Completed hot model swaps.", nil),
		mSwapRejects: reg.Counter("monitorless_model_swap_rejects_total",
			"Hot swaps refused (schema or layout mismatch).", nil),
	}
	s.active.Store(&modelVersion{
		model:     cfg.Model,
		streamer:  streamer,
		threshold: cfg.Model.Threshold,
		fp:        cfg.Model.Fingerprint,
		gen:       1,
		pipeGob:   pipeGob,
		bundleVer: cfg.BundleVersion,
	})
	if cfg.Model.Fingerprint != nil && cfg.DriftWindow >= 0 {
		s.drift = lifecycle.NewMonitor(cfg.Model.Fingerprint, cfg.DriftWindow)
	}
	for i := range s.shards {
		s.shards[i].eng = core.NewEngine(cfg.Model, streamer)
		s.shards[i].apps = make(map[string]*shardApp)
		s.shards[i].drift = lifecycle.NewCell()
	}
	reg.CounterFunc("monitorless_ingest_samples_total",
		"Per-instance metric vectors folded into streaming feature state.", nil, s.cSamples.Value)
	reg.HistogramSource("monitorless_predict_seconds",
		"Per-sample inference latency (feature step + batched forest vote).", nil, s.hPredict)
	reg.HistogramSource("monitorless_predict_stage_seconds",
		"Per-sample forest-predict stage latency (key + tree walk only, excluding wire decode and feature streaming) — the number that attributes a batch-predict speedup.", nil, s.hPredictStage)
	reg.GaugeFunc("monitorless_instances",
		"Instances with live streaming feature state.", nil, func() float64 {
			var t int64
			for i := range s.nInst {
				t += s.nInst[i].v.Load()
			}
			return float64(t)
		})
	reg.GaugeFunc("monitorless_instance_state_bytes",
		"Allocated bytes of the per-shard SoA instance stream-state slabs (ring storage capacity, summed over shards).", nil, func() float64 {
			var t int64
			for i := range s.shards {
				t += s.shards[i].bytes.Load()
			}
			return float64(t)
		})
	// Always 0: a pipeline with a step that has no columnar kernel (PCA)
	// does not stream, so no sample takes a per-row path. The series
	// exists only for the benchmark, which reads it (bench/online.go,
	// bench/replay.go); the next change to the benchmark removes the read
	// and this series, as with Frame.Chunked.
	reg.CounterFunc("monitorless_stream_fallback_rows_total",
		"Always 0: no sample takes a per-row feature path; a pipeline whose steps do not all stream is refused at load.", nil, func() float64 { return 0 })
	reg.GaugeFunc("monitorless_model_generation",
		"Active model generation (1 at startup, +1 per hot swap).", nil, func() float64 {
			return float64(s.active.Load().gen)
		})
	reg.GaugeFunc("monitorless_model_bundle_legacy",
		"1 when the active model has no training fingerprint (built in-process without one): drift detection disabled.", nil, func() float64 {
			return boolGauge(s.active.Load().fp == nil)
		})
	if s.drift != nil {
		reg.CounterFunc("monitorless_drift_windows_total",
			"Completed per-app drift windows scored against the training fingerprint.", nil, func() float64 {
				return float64(s.drift.Windows())
			})
	}
	return s, nil
}

// Registry exposes the service's metrics registry so an HTTP layer can
// add its own families and render /metrics.
func (s *Service) Registry() *Registry { return s.reg }

// SchemaHash is the fingerprint of the raw-metric schema the model was
// trained against; ingest rejects observations declaring a different one.
func (s *Service) SchemaHash() string { return s.schemaHash }

// RawNames lists the expected raw metric schema in vector order.
func (s *Service) RawNames() []string {
	return s.active.Load().model.RawNames()
}

// Model returns the active model (for observability endpoints).
func (s *Service) Model() *core.Model { return s.active.Load().model }

// Drift returns the lifecycle drift monitor (nil when the model carries
// no training fingerprint or monitoring is disabled).
func (s *Service) Drift() *lifecycle.Monitor { return s.drift }

// NumShards returns the effective (power-of-two) shard count.
func (s *Service) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index an instance ID routes to — a pure
// function of the ID, invariant across restarts.
func (s *Service) ShardOf(id string) int { return int(shardIndex(id, s.mask)) }

// getResponse takes a pooled response (maps pre-sized and cleared).
func (s *Service) getResponse() *IngestResponse {
	if r, ok := s.respPool.Get().(*IngestResponse); ok {
		return r
	}
	return &IngestResponse{
		Predictions: make(map[string]Prediction, 64),
		Apps:        make(map[string]AppStatus, 8),
	}
}

// PutResponse returns an ingest response to the service's reuse pool.
// Callers that retain the response (or pass it on) simply never return
// it; returning it twice, or using it after return, is a caller bug.
func (s *Service) PutResponse(r *IngestResponse) {
	if r == nil {
		return
	}
	r.T = 0
	r.Samples = 0
	clear(r.Predictions)
	clear(r.Apps)
	s.respPool.Put(r)
}

// getRoute takes pooled routing scratch sized to the shard count.
func (s *Service) getRoute() *routeScratch {
	rs, ok := s.routePool.Get().(*routeScratch)
	if !ok {
		rs = &routeScratch{
			perShard: make([][]int32, len(s.shards)),
			touched:  make(map[string]struct{}, 8),
			seen:     make(map[uint64]int32, 64),
		}
	}
	for i := range rs.perShard {
		rs.perShard[i] = rs.perShard[i][:0]
	}
	clear(rs.touched)
	clear(rs.seen)
	return rs
}

// Ingest folds one tick's observation into the per-instance streaming
// states, refreshes predictions through the batch forest path, and
// advances the per-app debouncers of every application that contributed
// a sample.
func (s *Service) Ingest(w pcp.WireObservation) (*IngestResponse, error) {
	return s.ingest(w, false)
}

// IngestQuiet is Ingest without materializing the per-instance
// prediction echo and per-app status maps in the response — the
// high-throughput agent path, where senders do not consume the echo.
// All state (streaming features, predictions, debouncers, metrics)
// advances exactly as with Ingest.
func (s *Service) IngestQuiet(w pcp.WireObservation) (*IngestResponse, error) {
	return s.ingest(w, true)
}

func (s *Service) ingest(w pcp.WireObservation, quiet bool) (*IngestResponse, error) {
	if w.SchemaHash != "" && w.SchemaHash != s.schemaHash {
		s.mSchemaRejects.Inc()
		return nil, fmt.Errorf("%w: got %.12s…, want %.12s…", ErrSchemaMismatch, w.SchemaHash, s.schemaHash)
	}
	if len(w.Samples) == 0 {
		s.mBadRequests.Inc()
		return nil, fmt.Errorf("serving: observation with no samples")
	}

	// The routing pass validates every sample before any shard lock, so a
	// rejected observation changes no state: no shard has stepped, no ID is
	// registered. Widths are checked against the active streamer; Swap
	// refuses a schema change, so every generation expects the same width.
	rs := s.getRoute()
	defer s.routePool.Put(rs)
	str := s.active.Load().streamer
	for i := range w.Samples {
		smp := &w.Samples[i]
		if smp.Instance == "" {
			s.mBadRequests.Inc()
			return nil, fmt.Errorf("serving: sample %d has empty instance ID", i)
		}
		if err := str.CheckWidth(smp.Values); err != nil {
			s.mBadRequests.Inc()
			return nil, fmt.Errorf("serving: ingest %s: %w", smp.Instance, err)
		}
		h := idHash(smp.Instance)
		if first, ok := rs.seen[h]; !ok {
			rs.seen[h] = int32(i)
		} else if repeatsEarlier(w.Samples, int(first), i) {
			s.mBadRequests.Inc()
			return nil, fmt.Errorf("serving: duplicate sample for %q", smp.Instance)
		}
		si := h & s.mask
		rs.perShard[si] = append(rs.perShard[si], int32(i))
	}

	resp := s.getResponse()
	resp.T = w.T
	resp.Samples = len(w.Samples)
	for si := range s.shards {
		if len(rs.perShard[si]) == 0 {
			continue
		}
		if err := s.ingestShard(si, &w, rs.perShard[si], resp, quiet, rs.touched); err != nil {
			s.PutResponse(resp)
			s.mBadRequests.Inc()
			return nil, err
		}
	}
	s.mObservations.Inc()

	// One debounce tick per app per observation: an app's raw OR spans all
	// of its tracked instances (merged across shards), but its window only
	// advances on ticks where it contributed at least one sample, so
	// sparse senders are not force-cleared by other apps' traffic.
	s.appsMu.Lock()
	for app := range rs.touched {
		e := s.apps[app]
		if e == nil {
			e = &appEntry{
				deb: NewDebouncer(s.cfg.DebounceK, s.cfg.DebounceN, s.cfg.ClearBelow),
				gSat: s.reg.Gauge("monitorless_app_saturated",
					"Debounced per-application saturation decision.", Labels{"app": app}),
				gRaw: s.reg.Gauge("monitorless_app_raw_saturated",
					"Instantaneous OR over instance predictions.", Labels{"app": app}),
			}
			s.apps[app] = e
		}
		st := s.appStatus(app)
		st.Saturated = e.deb.Observe(st.Raw)
		st.WindowCount = e.deb.Count()
		e.gSat.Set(boolGauge(st.Saturated))
		e.gRaw.Set(boolGauge(st.Raw))
		if !quiet {
			resp.Apps[app] = st
		}
	}
	s.appsMu.Unlock()
	return resp, nil
}

// repeatsEarlier reports whether sample i repeats the ID of a sample in
// [first, i), where first is the earliest sample sharing i's routing
// hash. Past the first comparison the scan only runs on a 64-bit hash
// collision between distinct IDs.
func repeatsEarlier(smps []pcp.WireSample, first, i int) bool {
	for j := first; j < i; j++ {
		if smps[j].Instance == smps[i].Instance {
			return true
		}
	}
	return false
}

// ingestShard processes one shard's slice of an already validated
// observation under the shard lock, in phases: (A) register new instances
// into the engine's slot registry, provisionally, so a Step failure rolls
// the registrations back without leaving phantom instances or skewed
// per-app aggregates; (B) one engine Step over the whole shard batch; (C)
// one engine Predict (the engine picks the forest route from the model);
// (D) prediction and per-app aggregate updates.
func (s *Service) ingestShard(si int, w *pcp.WireObservation, idxs []int32, resp *IngestResponse, quiet bool, touched map[string]struct{}) error {
	// The active model is loaded exactly once per shard batch: a swap
	// landing mid-batch does not mix generations within the batch, and
	// every prediction below is stamped with the generation it used.
	mv := s.active.Load()
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Every batch binds the generation it loaded: a batch that loaded a
	// cold-swapped model before resetInstances landed (or an old one
	// after) re-mints the engine state here.
	if sh.bind(mv) {
		s.nInst[si].v.Store(0)
	}
	start := time.Now()

	n := len(idxs)
	sh.pend = sh.pend[:0]
	sh.slots = sh.slots[:0]
	sh.raws = sh.raws[:0]
	for _, i := range idxs {
		smp := &w.Samples[i]
		slot, known := sh.eng.Lookup(smp.Instance)
		app := smp.App
		if app == "" {
			app = appFromID(smp.Instance)
		}
		if !known {
			// Register with a provisional prediction naming the app, so
			// the per-app aggregates stay consistent between phases.
			slot = sh.register(smp.Instance, Prediction{T: w.T, App: app, Service: smp.Service, ModelGen: mv.gen})
			sh.appAgg(app).instances++
			s.nInst[si].v.Add(1)
		}
		sh.slots = append(sh.slots, slot)
		sh.raws = append(sh.raws, smp.Values)
		sh.pend = append(sh.pend, pendSample{slot: slot, id: smp.Instance, app: app, svc: smp.Service, isNew: !known})
	}

	// Phase B: one columnar feature step for the whole shard batch. The
	// routing pass validated widths and kept slots unique within the
	// observation, so an error here means a pipeline inconsistency — roll
	// the registrations back and reject.
	if err := sh.eng.Step(sh.slots, sh.raws); err != nil {
		// Pre-existing instances need no undo: phase A mutates nothing
		// about them.
		for k := range sh.pend {
			if p := &sh.pend[k]; p.isNew {
				sh.eng.Release(p.id)
				if agg := sh.apps[p.app]; agg != nil {
					agg.instances--
					if agg.instances == 0 {
						delete(sh.apps, p.app)
					}
				}
				s.nInst[si].v.Add(-1)
			}
		}
		return fmt.Errorf("serving: ingest batch step: %w", err)
	}
	// Drift sees a sample only once its whole shard batch is accepted: a
	// rejected batch must not leave counts in the window.
	if s.drift != nil && mv.fp != nil {
		for k := range sh.pend {
			sh.drift.Observe(mv.fp, sh.pend[k].app, sh.raws[k])
		}
	}

	// Phase C: one forest walk per shard batch, timed separately from the
	// surrounding ingest work so /metrics can attribute the forest's share
	// of the pipeline (predict_stage vs the whole-batch predict histogram
	// below).
	predictStart := time.Now()
	probs := sh.eng.Predict()
	s.hPredictStage.Shard(si).ObserveN(time.Since(predictStart).Seconds()/float64(n), uint64(n))

	for k := range sh.pend {
		p := &sh.pend[k]
		prob := probs[k]
		sat := prob >= mv.threshold
		old := sh.preds[p.slot]
		sh.preds[p.slot] = Prediction{
			Prob: prob, Saturated: sat, T: w.T,
			Samples: sh.eng.Samples(p.slot),
			App:     p.app, Service: p.svc,
			ModelGen: mv.gen,
		}
		sh.updateAgg(p, old, sat)
		if !quiet {
			resp.Predictions[p.id] = sh.preds[p.slot]
		}
		touched[p.app] = struct{}{}
	}
	sh.bytes.Store(sh.eng.StateBytes())

	elapsed := time.Since(start).Seconds()
	s.hPredict.Shard(si).ObserveN(elapsed/float64(n), uint64(n))
	s.cSamples.Add(si, float64(n))
	return nil
}

// appAgg returns (creating if needed) the shard's aggregate for app.
// Callers hold the shard lock.
func (sh *shard) appAgg(app string) *shardApp {
	agg := sh.apps[app]
	if agg == nil {
		agg = &shardApp{}
		sh.apps[app] = agg
	}
	return agg
}

// updateAgg folds one prediction transition into the shard's per-app
// counts. Callers hold the shard lock. New instances were counted into
// their app at insertion (provisional, unsaturated), so here only the
// saturation flip and app moves remain.
func (sh *shard) updateAgg(p *pendSample, old Prediction, sat bool) {
	if !p.isNew && old.App != p.app {
		if agg := sh.apps[old.App]; agg != nil {
			agg.instances--
			if old.Saturated {
				agg.saturated--
			}
			if agg.instances == 0 {
				delete(sh.apps, old.App)
			}
		}
		sh.appAgg(p.app).instances++
		old.Saturated = false
	}
	if sat == old.Saturated && !p.isNew {
		return
	}
	agg := sh.appAgg(p.app)
	if sat && !old.Saturated {
		agg.saturated++
	} else if !sat && old.Saturated {
		agg.saturated--
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// appStatus merges one app's per-shard aggregates into its instantaneous
// status (Raw OR + instance count). It takes each shard lock briefly;
// callers may hold appsMu (lock order: appsMu before shard.mu).
func (s *Service) appStatus(app string) AppStatus {
	var st AppStatus
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		if agg, ok := sh.apps[app]; ok {
			st.Instances += agg.instances
			if agg.saturated > 0 {
				st.Raw = true
			}
		}
		sh.mu.Unlock()
	}
	return st
}

// Predict ingests one observation and returns the saturated instances
// among those in obs: the autoscaler's Predictor seam, served in-process
// (Client.Predict is the same contract over HTTP).
func (s *Service) Predict(obs pcp.WireObservation) (map[string]bool, error) {
	resp, err := s.Ingest(obs)
	if err != nil {
		return nil, err
	}
	defer s.PutResponse(resp)
	return saturatedIn(resp.Predictions), nil
}

// saturatedIn returns the IDs of the predictions flagged saturated.
func saturatedIn(preds map[string]Prediction) map[string]bool {
	out := map[string]bool{}
	for id, p := range preds {
		if p.Saturated {
			out[id] = true
		}
	}
	return out
}

// Forget drops an instance's streaming state and prediction (scale-in),
// recycling its slot. It reports whether the instance was known.
func (s *Service) Forget(id string) bool {
	si := shardIndex(id, s.mask)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.eng.Release(id)
	if !ok {
		return false
	}
	s.nInst[si].v.Add(-1)
	pred := sh.preds[slot]
	if agg := sh.apps[pred.App]; agg != nil {
		agg.instances--
		if pred.Saturated {
			agg.saturated--
		}
		if agg.instances == 0 {
			delete(sh.apps, pred.App)
		}
	}
	return true
}

// InstancePrediction returns the latest prediction for one instance.
func (s *Service) InstancePrediction(id string) (Prediction, bool) {
	sh := &s.shards[shardIndex(id, s.mask)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.eng.Lookup(id)
	if !ok {
		return Prediction{}, false
	}
	return sh.preds[slot], true
}

// Predictions snapshots every tracked instance's latest prediction.
func (s *Service) Predictions() map[string]Prediction {
	out := make(map[string]Prediction)
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for slot, id := range sh.eng.IDs() {
			if id != "" {
				out[id] = sh.preds[slot]
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Apps snapshots every tracked application's aggregated status,
// including the sorted saturated-instance enumeration (computed here, on
// the read path, rather than per ingest).
func (s *Service) Apps() map[string]AppStatus {
	s.appsMu.Lock()
	defer s.appsMu.Unlock()
	out := make(map[string]AppStatus, len(s.apps))
	for app, e := range s.apps {
		st := s.appStatus(app)
		st.Saturated = e.deb.State()
		st.WindowCount = e.deb.Count()
		out[app] = st
	}
	// One pass over the fleet gathers every app's saturated instances.
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for slot, id := range sh.eng.IDs() {
			pred := &sh.preds[slot]
			if id == "" || !pred.Saturated {
				continue
			}
			if st, ok := out[pred.App]; ok {
				st.SaturatedInstances = append(st.SaturatedInstances, id)
				out[pred.App] = st
			}
		}
		sh.mu.Unlock()
	}
	for app, st := range out {
		if len(st.SaturatedInstances) > 1 {
			sort.Strings(st.SaturatedInstances)
			out[app] = st
		}
	}
	return out
}

// Stats summarizes the service for health reporting.
func (s *Service) Stats() Stats {
	var instances int64
	for i := range s.nInst {
		instances += s.nInst[i].v.Load()
	}
	s.appsMu.Lock()
	apps := len(s.apps)
	s.appsMu.Unlock()
	mv := s.active.Load()
	return Stats{
		Instances:     int(instances),
		Apps:          apps,
		Shards:        len(s.shards),
		SamplesTotal:  s.cSamples.Value(),
		SchemaHash:    s.schemaHash,
		ModelTrees:    mv.model.Forest.NumTrees(),
		Threshold:     mv.threshold,
		ModelGen:      mv.gen,
		BundleVersion: mv.bundleVer,
		LegacyBundle:  mv.fp == nil,
		QuantPredict:  mv.model.Forest.Quant() != nil,
		Swaps:         s.nSwaps.Load(),
	}
}

// Swap atomically replaces the serving model with m (loaded from a
// bundle of the given format version; 0 for in-process models). The new
// model must be trained against the same raw metric schema and produce
// the same engineered column layout — per-shard scratch frames and the
// instance hash are sized to them. When the new pipeline is
// byte-identical to the active one (same pointer or equal gob image) the
// swap is warm: per-instance streaming state carries over untouched, so
// a swap to a byte-identical bundle is bit-invisible to predictions.
// Otherwise the swap is cold: all instance state is reset and rebuilt
// from subsequent traffic. In-flight shard batches finish on the
// generation they loaded; there is no pause.
func (s *Service) Swap(m *core.Model, bundleVersion int) (SwapEvent, error) {
	if m == nil || m.Forest == nil || m.Pipeline == nil {
		s.mSwapRejects.Inc()
		return SwapEvent{}, fmt.Errorf("serving: swap: incomplete model")
	}
	if h := m.RawSchema.Hash(); h != s.schemaHash {
		s.mSwapRejects.Inc()
		return SwapEvent{}, fmt.Errorf("%w: swap candidate trained on schema %.12s…, serving %.12s…", ErrSchemaMismatch, h, s.schemaHash)
	}
	names := m.Pipeline.OutputNames()
	if len(names) != len(s.engNames) {
		s.mSwapRejects.Inc()
		return SwapEvent{}, fmt.Errorf("serving: swap: engineered layout has %d columns, serving %d", len(names), len(s.engNames))
	}
	for i := range names {
		if names[i] != s.engNames[i] {
			s.mSwapRejects.Inc()
			return SwapEvent{}, fmt.Errorf("serving: swap: engineered column %d is %q, serving %q", i, names[i], s.engNames[i])
		}
	}

	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.active.Load()

	warm := m.Pipeline == cur.model.Pipeline
	streamer := cur.streamer
	pipeGob := cur.pipeGob
	if !warm {
		gobImg, err := m.Pipeline.EncodeGob()
		if err != nil {
			s.mSwapRejects.Inc()
			return SwapEvent{}, fmt.Errorf("serving: swap: %w", err)
		}
		if bytes.Equal(gobImg, cur.pipeGob) {
			// Equal pipelines engineer identically: existing stream
			// states remain valid and predictions stay bit-identical for
			// an identical forest.
			warm = true
		} else {
			streamer, err = m.Streamer()
			if err != nil {
				s.mSwapRejects.Inc()
				return SwapEvent{}, fmt.Errorf("serving: swap: %w", err)
			}
			pipeGob = gobImg
		}
	}

	nv := &modelVersion{
		model:     m,
		streamer:  streamer,
		threshold: m.Threshold,
		fp:        m.Fingerprint,
		gen:       cur.gen + 1,
		pipeGob:   pipeGob,
		bundleVer: bundleVersion,
	}
	s.active.Store(nv)
	if !warm {
		s.resetInstances(nv)
	}
	if s.drift != nil && nv.fp != cur.fp && nv.fp != nil {
		// A different training distribution invalidates partial windows;
		// cells rebind lazily on their next Observe.
		s.drift.Reset(nv.fp)
	}

	ev := SwapEvent{
		Gen:           nv.gen,
		At:            time.Now().UTC(),
		Reason:        "operator",
		Cold:          !warm,
		Trees:         m.Forest.NumTrees(),
		TrainSamples:  m.TrainSamples,
		BundleVersion: bundleVersion,
	}
	s.history = append(s.history, ev)
	if len(s.history) > maxSwapHistory {
		s.history = s.history[len(s.history)-maxSwapHistory:]
	}
	s.nSwaps.Add(1)
	s.mSwaps.Inc()
	return ev, nil
}

// SwapHistory returns the retained swap event log, oldest first.
func (s *Service) SwapHistory() []SwapEvent {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	return append([]SwapEvent(nil), s.history...)
}

// resetInstances drops all per-instance streaming state and per-shard
// app aggregates (a cold swap: the new pipeline cannot continue old
// rings) by binding every shard to the new generation. A batch still in
// flight on the old generation re-binds to the model it loaded, so no
// batch ever steps a slab of the wrong geometry. App debouncers survive —
// their k-of-n windows refill from the new model's decisions on
// subsequent ticks.
func (s *Service) resetInstances(nv *modelVersion) {
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		if sh.bind(nv) {
			s.nInst[si].v.Store(0)
		}
		sh.mu.Unlock()
	}
}

// HarvestDrift drains every shard's drift cell into the monitor and
// refreshes the per-app drift gauges. The /metrics handler calls it
// before rendering and GET /model before reading, so both see current
// scores. No-op without a monitor.
func (s *Service) HarvestDrift() {
	if s.drift == nil {
		return
	}
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		s.drift.Absorb(sh.drift)
		sh.mu.Unlock()
	}
	for _, d := range s.drift.Scores() {
		s.reg.Gauge("monitorless_drift_psi_max",
			"Worst per-feature PSI of the app's last completed drift window.", Labels{"app": d.App}).Set(d.MaxPSI)
		s.reg.Gauge("monitorless_drift_mean_shift_max",
			"Worst standardized mean shift of the app's last completed drift window.", Labels{"app": d.App}).Set(d.MaxShift)
	}
}

// appFromID extracts the application from "<app>/<service>/<n>" IDs.
func appFromID(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			return id[:i]
		}
	}
	return id
}
