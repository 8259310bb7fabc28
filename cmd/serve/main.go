// Command serve runs the monitorless online inference service: it loads a
// trained model bundle and serves per-instance saturation predictions over
// HTTP, maintaining incremental per-instance feature state so each
// ingested sample costs O(features) instead of re-running the batch
// pipeline.
//
// Usage:
//
//	serve -model model.gob [-addr 127.0.0.1:9090] [-debounce-k 3] [-debounce-n 5]
//
// Endpoints: POST /ingest, GET /predict, GET /apps, DELETE /instances?id=,
// GET /schema, GET /healthz, GET /metrics (Prometheus text), GET/POST /model
// (model identity, drift scores, swap history; POST hot-swaps a bundle).
//
// -drift-window sizes per-app drift scoring against the bundle's training
// fingerprint. Drift is an alarm: the served model reads platform metrics
// only, so an operator answers it by retraining offline (cmd/train) and
// hot-swapping the new bundle with POST /model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/serving"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	var (
		modelPath  = flag.String("model", "model.gob", "trained model bundle (from cmd/train)")
		addr       = flag.String("addr", "127.0.0.1:9090", "listen address (port 0 picks a free port)")
		debounceK  = flag.Int("debounce-k", 3, "raise an app alarm when ≥K of the last N raw decisions were saturated")
		debounceN  = flag.Int("debounce-n", 5, "debounce window length in ticks")
		clearBelow = flag.Int("clear-below", 1, "clear the alarm when fewer than this many positives remain in the window")
		shards     = flag.Int("shards", 0, "instance-state shard count, rounded up to a power of two (0 = default)")
		drain      = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")

		driftWindow = flag.Int("drift-window", 0, "per-app drift window in samples (0 = default 2048, -1 = disable drift scoring)")
	)
	flag.Parse()

	b, err := core.LoadBundleFile(*modelPath)
	if err != nil {
		log.Fatalf("%v (train one with: go run ./cmd/train -out %s)", err, *modelPath)
	}
	fmt.Printf("loaded model bundle v%d: %d trees, threshold %.2f, %d raw metrics, schema %.12s…\n",
		b.Version, b.Model.Forest.NumTrees(), b.Model.Threshold, len(b.Model.RawNames()), b.SchemaHash)
	if q := b.Model.Forest.Quant(); q != nil {
		fmt.Printf("quantized batch predict: on (packed walk over order keys of %d columns)\n", q.NumSlots())
		fmt.Println("fused ingest: on (engineered columns are keyed straight into the key slab)")
	} else {
		fmt.Println("quantized batch predict: off (float tree walk)")
	}

	svc, err := serving.New(serving.Config{
		Model:         b.Model,
		BundleVersion: b.Version,
		DebounceK:     *debounceK,
		DebounceN:     *debounceN,
		ClearBelow:    *clearBelow,
		Shards:        *shards,
		DriftWindow:   *driftWindow,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance state sharded %d ways\n", svc.NumShards())
	if *driftWindow >= 0 && svc.Drift() == nil {
		fmt.Println("drift scoring disabled: model carries no training fingerprint")
	}

	if err := runServe(svc, *addr, *drain); err != nil {
		log.Fatal(err)
	}
}

// runServe hosts the service until SIGINT/SIGTERM, then drains in-flight
// requests before exiting.
func runServe(svc *serving.Service, addr string, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	server := &http.Server{
		Handler:           serving.NewServer(svc),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	fmt.Printf("serving on http://%s (POST /ingest, GET /predict /apps /schema /healthz /metrics /model)\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately
	fmt.Println("signal received, draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("drained cleanly")
	return nil
}
