// Quickstart: train a monitorless model on a handful of Table 1 runs,
// persist it, and use an in-process Service to classify live metric
// vectors from a simulated deployment — the end-to-end §2 loop in ~100
// lines.
package main

import (
	"bytes"
	"fmt"
	"log"

	"monitorless"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/pcp"
	"monitorless/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Generate labeled training data from a few representative runs
	//    (Solr CPU-bound, Memcache CPU- and memory-bound, Cassandra
	//    container-CPU pairs). Short durations keep this example fast.
	fmt.Println("generating training data...")
	report, err := monitorless.GenerateTrainingData(monitorless.DataOptions{
		Runs:        []int{1, 6, 8, 10, 22, 23},
		Duration:    300,
		RampSeconds: 250,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := report.Dataset
	fmt.Printf("  %d samples, %.0f%% saturated\n", ds.Frame().Rows(), 100*ds.SaturatedFraction())

	// 2. Train. The default configuration mirrors the paper (§3.4); we
	//    shrink the forest for example speed.
	cfg := monitorless.DefaultTrainConfig()
	cfg.Forest.NumTrees = 40
	cfg.Pipeline.FilterTrees = 15
	model, err := monitorless.Train(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d engineered features, decision threshold %.1f\n",
		model.Pipeline.NumOutputs(), model.Threshold)

	// 3. Persist and reload as a bundle, the file cmd/serve loads.
	var buf bytes.Buffer
	if err := monitorless.SaveModel(&buf, model); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	model, err = monitorless.LoadModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model round-tripped through a %d-byte bundle\n", size)

	// 4. Deploy a fresh application the model has never seen: a web shop
	//    front-end that saturates its single core under the load spike.
	c, err := cluster.New(apps.TrainingNode("prod-1"))
	if err != nil {
		log.Fatal(err)
	}
	shop, err := apps.Build(c, "shop", workload.Steps{
		Levels:  []float64{100, 900, 100}, // calm → spike → calm
		StepLen: 40,
	}, []apps.ServiceSpec{
		{Name: "web", Node: "prod-1", Profile: apps.SolrProfile(), Visit: 1, CPULimit: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := apps.NewEngine(c, shop)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Wire the monitoring agent to the Service and watch the
	//    predictions flip as the spike arrives (≈571 req/s capacity).
	agent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 7))
	svc, err := monitorless.NewService(model)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n  t   load  served   RT(ms)  predicted")
	for t := 0; t < 120; t++ {
		eng.Tick()
		obs, ok := agent.Observe(eng)
		if !ok {
			continue
		}
		if _, err := svc.Predict(obs); err != nil {
			log.Fatal(err)
		}
		if t%10 != 9 {
			continue
		}
		state := "ok"
		if svc.Apps()["shop"].Saturated {
			state = "SATURATED"
		}
		fmt.Printf("%4d %6.0f %7.0f %8.0f  %s\n",
			t, shop.KPI.Offered, shop.KPI.Throughput, 1000*shop.KPI.AvgRT, state)
	}
}
