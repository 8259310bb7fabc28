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
// The model lifecycle plane is controlled by -drift-window (per-app drift
// scoring against the bundle's training fingerprint), -swap-policy
// (off|shadow|auto shadow retraining from labeled ingest samples) and
// -retrain-interval (how often the challenger is refit and compared).
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
	"monitorless/internal/lifecycle"
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
		swapPolicy  = flag.String("swap-policy", "off", "shadow-retrain policy: off | shadow (train+compare only) | auto (promote winning challengers)")
		retrainIvl  = flag.Duration("retrain-interval", 10*time.Minute, "how often the shadow challenger is refit and compared")
		reservoir   = flag.Int("reservoir", 0, "labeled-sample reservoir capacity for shadow retraining (0 = default 8192)")
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

	mg, err := buildLifecycle(svc, b.Model, *swapPolicy, *reservoir)
	if err != nil {
		log.Fatal(err)
	}

	if err := runServe(svc, mg, *retrainIvl, *addr, *drain); err != nil {
		log.Fatal(err)
	}
}

// buildLifecycle assembles the shadow-retrain manager around the serving
// plane: labeled ingest samples feed its reservoir, challenger promotions
// go through the service's atomic hot swap, and per-outcome counters land
// on the service's metrics registry. Returns nil for policy "off".
func buildLifecycle(svc *serving.Service, champion *core.Model, policy string, reservoirCap int) (*lifecycle.Manager, error) {
	pol, err := lifecycle.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	if pol == lifecycle.PolicyOff {
		return nil, nil
	}
	outcomes := make(map[string]*serving.Counter, 4)
	for _, o := range []string{"win", "loss", "skip", "error"} {
		outcomes[o] = svc.Registry().Counter("monitorless_retrain_rounds_total",
			"Shadow retrain rounds by outcome.", serving.Labels{"outcome": o})
	}
	mg, err := lifecycle.NewManager(lifecycle.Config{
		Champion:     champion,
		Policy:       pol,
		ReservoirCap: reservoirCap,
		Swap: func(m *core.Model, trainSamples int, reason string) error {
			_, err := svc.Swap(m, 0, reason)
			return err
		},
		Harvest: svc.HarvestDrift,
		OnOutcome: func(o string) {
			if c := outcomes[o]; c != nil {
				c.Inc()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	svc.SetLabelSink(mg.Reservoir)
	fmt.Printf("shadow retraining enabled: policy %s, reservoir %d labeled samples\n", pol, mg.Reservoir.Cap())
	return mg, nil
}

// runServe hosts the service until SIGINT/SIGTERM, then drains in-flight
// requests before exiting. When a lifecycle manager is attached, its
// retrain loop runs alongside the server and stops with it.
func runServe(svc *serving.Service, mg *lifecycle.Manager, retrainIvl time.Duration, addr string, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	handler := serving.NewServer(svc)
	if mg != nil {
		handler.AttachLifecycle(mg)
		go mg.Run(ctx, retrainIvl)
	}
	server := &http.Server{
		Handler:           handler,
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
