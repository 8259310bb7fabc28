package main

import (
	"fmt"
	"time"
)

// This file is the single place the benchmark is defined: the four
// workloads with their sizes, and every metric name with its unit,
// direction and bound. BENCHMARK.json at the repository root repeats the
// names for the driver; spec_test.go fails when the two disagree.

// bundleKind selects the model a workload serves.
type bundleKind int

const (
	// bundlePaper is the paper layout: normalize, filter, time windows,
	// products, filter (experiments.Small().TrainConfig()) with a
	// histogram-trained 128-bin forest — ~250 engineered features and
	// ~37 KB of ring state per instance.
	bundlePaper bundleKind = iota
	// bundleLean is the cmd/loadgen recipe: normalize + top-16 filter, a
	// 12-tree hist forest, no time windows.
	bundleLean
)

// workloadKind selects the driver.
type workloadKind int

const (
	kindClosed  workloadKind = iota // closed loop over binary quiet frames
	kindOpen                        // open loop of per-node JSON agents plus readers
	kindOffline                     // batch training job
)

// spec sizes one workload. The committed sizes are in workloads(); tests
// shrink them.
type spec struct {
	name string
	why  string
	kind workloadKind

	bundle bundleKind
	// trainRuns / trainDuration / trainRamp / trees size the bundle the
	// online workloads serve. The bundle is a fixture of the workload, so
	// it trains from bundleSeed, not from -seed: the per-sample cost of a
	// bundle depends on which features its filter keeps, and a benchmark
	// whose model changed with the seed could not compare two seeds.
	trainRuns     []int
	trainDuration int
	trainRamp     int
	trees         int
	// driftOff starts the server with -drift-window -1.
	driftOff bool

	instances int // fleet size
	apps      int // applications the fleet is spread over
	ticks     int // distinct simulator ticks pre-encoded and cycled

	// Closed loop: samples per binary frame.
	frameSamples int

	// Open loop: agents of agentSize instances each; fixed request rates
	// per second; one agent in restartOneIn restarts per tick.
	agentSize    int
	ingestRate   int
	appsRate     int
	predictRate  int
	metricsRate  int
	restartOneIn int

	// Offline: Table 1 run IDs, seconds per run at the committed
	// run_seconds, forest size.
	offlineRuns   []int
	offlineTrees  int
	offlineRamp   int
	secondsPerRun int // simulated seconds per run for each second of -seconds

	// conns is the number of generator connections (and goroutines). It is
	// never more than the cores the box has.
	conns int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// checkInstances is the size of the seeded served-prediction subset.
	checkInstances int
	// strict applies the sample-count rule for percentiles and the
	// generator self-accounting limits. Tests at toy sizes turn it off.
	strict bool
}

// Fixed seeds of the workload fixtures (not of the inputs; those come
// from -seed).
const (
	bundleSeed = 42
	// runSeconds is BENCHMARK.json's run_seconds: the measured window the
	// committed reference numbers were taken with.
	runSeconds = 10
	// maxLatency is the longest a request may take before it counts as
	// failed: the 1 s agent tick.
	maxLatency = time.Second
	// Generator self-accounting limits: above them the numbers measure
	// the generator, so the run fails instead of reporting.
	maxLateP90     = time.Millisecond
	maxLoadgenCPUs = 0.75
)

var allTable1 = func() []int {
	ids := make([]int, 25)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}()

// workloads returns the four committed workloads.
func workloads() []spec {
	return []spec{
		{
			name: "fleet-full",
			why:  "closed loop, 8192 instances, paper-layout bundle, drift on: lifecycle drift, features stepping and forest quantize do most of the work",
			kind: kindClosed, bundle: bundlePaper,
			trainRuns: allTable1, trainDuration: 300, trainRamp: 250, trees: 40,
			instances: 8192, apps: 32, ticks: 8, frameSamples: 1024,
			conns: 2, setups: 5, checkInstances: 64, strict: true,
		},
		{
			name: "fleet-lean",
			why:  "closed loop, 16384 instances, lean bundle, drift off: body read, wire decode, routing, registry and aggregation dominate; a model-layer change must not move it",
			kind: kindClosed, bundle: bundleLean, driftOff: true,
			trainRuns: []int{1, 8, 22}, trainDuration: 300, trainRamp: 200, trees: 12,
			instances: 16384, apps: 32, ticks: 4, frameSamples: 2048,
			conns: 2, setups: 5, checkInstances: 64, strict: true,
		},
		{
			name: "agents-json",
			why:  "open loop at 100 JSON ingests/s from 128 node agents with echo, restarts and concurrent readers: text decode, echo encode, churn and reads beside writes",
			kind: kindOpen, bundle: bundlePaper,
			trainRuns: allTable1, trainDuration: 300, trainRamp: 250, trees: 40,
			instances: 2048, apps: 32, ticks: 8, agentSize: 16,
			ingestRate: 100, appsRate: 10, predictRate: 50, metricsRate: 1, restartOneIn: 32,
			conns: 2, setups: 5, checkInstances: 64, strict: true,
		},
		{
			name:        "offline-train",
			why:         "batch job: generate the Table 1 corpus, fit pipeline and forest, save, load and score a held-out corpus; the other half of the system",
			kind:        kindOffline,
			offlineRuns: allTable1, offlineTrees: 100, offlineRamp: 500, secondsPerRun: 60,
			setups: 9, strict: true,
		},
	}
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (the driver's contract), so each is defined
// for the batch job too: there the program under test is the training
// job itself, a sample is a corpus row, and the job is the one request.
//
// Every bound is the contract's ceiling, a quarter of the median. Ten
// runs on ten seeds inside one quiet stretch of this box spread by 2–6 %
// (set-up and the batch job's peak RSS by 10 %), but the box shares its
// host and its own speed moves: the same build measured half an hour
// apart read 92 k and 111 k samples/s on fleet-full and 538 k and 639 k
// on fleet-lean, with CPU per sample moving with them. A tighter bound
// would reject two sets of runs of identical code. Smaller differences
// are resolved by paired, alternating runs, not by this bound.
var endToEnd = []metricDef{
	{"ingest_samples_per_s", "1/s", "higher", 0.25},
	{"server_cpu_us_per_sample", "us", "lower", 0.25},
	{"server_peak_rss_mb", "MB", "lower", 0.25},
	{"ingest_req_p50_ms", "ms", "lower", 0.25},
	{"ingest_req_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, grouped by
// the package they measure. A metric that does not exist on a workload
// reads 0 there.
var perLayer = []metricDef{
	// internal/serving
	{"serving.servehttp_ns_per_sample", "ns", "lower", 0},
	{"serving.wire_decode_ns_per_sample", "ns", "lower", 0},
	{"serving.json_decode_ns_per_sample", "ns", "lower", 0},
	{"serving.ingest_ns_per_sample", "ns", "lower", 0},
	{"serving.http_self_ns_per_sample", "ns", "lower", 0},
	{"serving.ingest_self_ns_per_sample", "ns", "lower", 0},
	{"serving.ingest_scaling_2x", "ratio", "higher", 0},
	{"serving.allocs_per_sample", "count", "lower", 0},
	{"serving.alloc_bytes_per_sample", "B", "lower", 0},
	{"serving.read_apps_us", "us", "lower", 0},
	{"serving.read_predict_us", "us", "lower", 0},
	{"serving.read_metrics_us", "us", "lower", 0},
	{"serving.forget_us", "us", "lower", 0},
	{"serving.wire_bytes_per_sample", "B", "lower", 0},
	{"serving.predict_seconds_mean_us", "us", "lower", 0},
	{"serving.predict_stage_mean_us", "us", "lower", 0},
	{"serving.rejects_total", "count", "lower", 0},
	// internal/lifecycle
	{"lifecycle.drift_observe_ns_per_sample", "ns", "lower", 0},
	{"lifecycle.drift_absorb_us", "us", "lower", 0},
	{"lifecycle.drift_windows", "count", "higher", 0},
	// internal/features
	{"features.step_batch_ns_per_sample", "ns", "lower", 0},
	{"features.engineered_cols", "count", "lower", 0},
	{"features.fallback_rows", "count", "lower", 0},
	{"features.state_bytes_per_instance", "B", "lower", 0},
	{"features.pipeline_fit_s", "s", "lower", 0},
	// internal/ml/forest
	{"forest.quantize_ns_per_sample", "ns", "lower", 0},
	{"forest.walk_ns_per_sample", "ns", "lower", 0},
	{"forest.trees", "count", "lower", 0},
	{"forest.quant_slots", "count", "lower", 0},
	{"forest.fit_s", "s", "lower", 0},
	// internal/dataset, internal/frame, internal/core
	{"dataset.generate_s", "s", "lower", 0},
	{"dataset.rows", "count", "higher", 0},
	{"frame.fingerprint_s", "s", "lower", 0},
	{"core.bundle_save_ms", "ms", "lower", 0},
	{"core.bundle_load_ms", "ms", "lower", 0},
	{"core.bundle_bytes", "B", "lower", 0},
	{"core.predict_frame_ns_per_row", "ns", "lower", 0},
	// ledger closure, both signed
	{"wire.unattributed_ns_per_sample", "ns", "lower", 0},
	{"offline.unattributed_s", "s", "lower", 0},
	{"trace.overhead_ns_per_sample", "ns", "lower", 0},
	// generator self-accounting
	{"loadgen.late_ms_p90", "ms", "lower", 0},
	{"loadgen.cpu_share", "cores", "lower", 0},
	{"loadgen.req_p99_ms", "ms", "lower", 0},
	{"server.cpu_sys_share", "ratio", "lower", 0},
	// Figures a user sees on one workload only. The driver wants every
	// end-to-end metric from every workload, so these are reported here,
	// unbounded, under the names the issue gave them.
	{"read_req_p90_ms", "ms", "lower", 0},
	{"train_total_s", "s", "lower", 0},
	{"offline_peak_rss_mb", "MB", "lower", 0},
	{"holdout_f1", "ratio", "higher", 0},
	{"failed_share", "ratio", "lower", 0},
}
