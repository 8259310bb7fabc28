package main

import (
	"os"
	"testing"
)

// The smoke tests run the whole harness at toy sizes for about a second
// of measurement per workload: bundle training, set-up against the real
// serve binary, the measured window, the served-prediction check, the
// SIGTERM drain and the traced layer replay.

var smokeEnv *env

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "monitorless-bench-test-")
	if err != nil {
		panic(err)
	}
	code := func() int {
		defer os.RemoveAll(dir)
		bin, err := buildServe(dir)
		if err != nil {
			println(err.Error())
			return 1
		}
		smokeEnv = &env{workDir: dir, serveBin: bin}
		return m.Run()
	}()
	os.Exit(code)
}

func smokeSpecs() map[string]spec {
	small := []int{1, 8, 22}
	return map[string]spec{
		"fleet-full": {
			name: "fleet-full", kind: kindClosed, bundle: bundlePaper,
			trainRuns: small, trainDuration: 200, trainRamp: 200, trees: 8,
			instances: 200, apps: 8, ticks: 4, frameSamples: 64,
			conns: 2, setups: 2, checkInstances: 16,
		},
		"fleet-lean": {
			name: "fleet-lean", kind: kindClosed, bundle: bundleLean, driftOff: true,
			trainRuns: small, trainDuration: 200, trainRamp: 200, trees: 6,
			instances: 300, apps: 8, ticks: 4, frameSamples: 128,
			conns: 2, setups: 2, checkInstances: 16,
		},
		"agents-json": {
			name: "agents-json", kind: kindOpen, bundle: bundlePaper,
			trainRuns: small, trainDuration: 200, trainRamp: 200, trees: 8,
			instances: 64, apps: 8, ticks: 4, agentSize: 4,
			ingestRate: 80, appsRate: 10, predictRate: 40, metricsRate: 2, restartOneIn: 8,
			conns: 2, setups: 2, checkInstances: 16,
		},
		"offline-train": {
			name: "offline-train", kind: kindOffline,
			offlineRuns: small, offlineTrees: 8, offlineRamp: 200, secondsPerRun: 200,
			setups: 2,
		},
	}
}

func TestSmokeEveryWorkloadTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("launches cmd/serve")
	}
	for _, w := range workloads() {
		sp := smokeSpecs()[w.name]
		t.Run(sp.name, func(t *testing.T) {
			runWorkload := runOnline
			if sp.kind == kindOffline {
				runWorkload = runOffline
			}
			res, err := runWorkload(smokeEnv, sp, 3, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("check failed: %s", p)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("correct %v, %d attempted, %d failed", res.correct, res.attempted, res.failed)
			}
			// Every end-to-end metric is reported by every workload and is
			// never zero; that is the driver's contract.
			for _, d := range endToEnd {
				if m, ok := res.metrics[d.name]; !ok || !(m.value > 0) {
					t.Errorf("%s = %v (reported %v), want a positive value", d.name, m.value, ok)
				}
			}
			// The ledger closes by construction; these are the rows that
			// must exist for it to mean anything.
			ledger := []string{"serving.servehttp_ns_per_sample", "serving.ingest_ns_per_sample", "features.step_batch_ns_per_sample",
				"forest.quantize_ns_per_sample", "forest.walk_ns_per_sample", "wire.unattributed_ns_per_sample"}
			if sp.kind == kindOffline {
				ledger = []string{"train_total_s", "features.pipeline_fit_s", "forest.fit_s", "frame.fingerprint_s",
					"core.predict_frame_ns_per_row", "offline.unattributed_s", "holdout_f1"}
			}
			for _, name := range ledger {
				if _, ok := res.metrics[name]; !ok {
					t.Errorf("traced run did not report %s", name)
				}
			}
			if _, ok := res.metrics["trace.overhead_ns_per_sample"]; !ok {
				t.Error("traced run did not report trace.overhead_ns_per_sample")
			}
		})
	}
}

// An early exit of serve must fail set-up at once, with its output, not
// after the listen timeout.
func TestStartServerReportsEarlyExit(t *testing.T) {
	if testing.Short() {
		t.Skip("launches cmd/serve")
	}
	_, err := startServer(smokeEnv.serveBin, "/nonexistent/model.gob", false)
	if err == nil {
		t.Fatal("serve started without a model")
	}
	t.Log(err)
}
