// Agent-side inference (the paper's §5 architecture refinement): instead
// of shipping ~290 metrics per instance per second to the central service,
// run the model next to the monitoring agent and ship one probability per
// instance. This example runs both architectures side by side on the same
// deployment, verifies they make identical decisions, and reports the
// network traffic saved.
package main

import (
	"fmt"
	"log"

	"monitorless"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
	"monitorless/internal/workload"
)

func main() {
	log.SetFlags(0)

	fmt.Println("training a compact monitorless model...")
	report, err := monitorless.GenerateTrainingData(monitorless.DataOptions{
		Runs:        []int{1, 6, 8, 22},
		Duration:    300,
		RampSeconds: 250,
		Seed:        4,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := monitorless.DefaultTrainConfig()
	cfg.Forest.NumTrees = 30
	cfg.Pipeline.FilterTrees = 12
	model, err := monitorless.Train(report.Dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A deployment with a saturating front-end.
	c, err := cluster.New(apps.TrainingNode("edge-1"))
	if err != nil {
		log.Fatal(err)
	}
	app, err := apps.Build(c, "shop", workload.Sine{Min: 50, Max: 1200, Period: 120},
		[]apps.ServiceSpec{{Name: "web", Node: "edge-1", Profile: apps.SolrProfile(), Visit: 1, CPULimit: 3}})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := apps.NewEngine(c, app)
	if err != nil {
		log.Fatal(err)
	}

	// Centralized path: agent ships full vectors, the Service infers.
	centralAgent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21))
	central, err := monitorless.NewService(model)
	if err != nil {
		log.Fatal(err)
	}
	centralBytes := 0

	// Edge path: the same collection, but inference happens at the agent
	// and only a compact report crosses the "network"; the center just
	// applies the threshold and the OR.
	edgeAgent, err := serving.NewEdgeAgent(pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21)), model)
	if err != nil {
		log.Fatal(err)
	}
	edgeBytes := 0

	agreements, decisions := 0, 0
	for t := 0; t < 240; t++ {
		eng.Tick()

		obs, ok := centralAgent.Observe(eng)
		if ok {
			centralBytes += wireSize(obs)
			if _, err := central.Predict(obs); err != nil {
				log.Fatal(err)
			}
		}

		rep, ok2, err := edgeAgent.Observe(eng)
		if err != nil {
			log.Fatal(err)
		}
		edgeSat := false
		if ok2 {
			edgeBytes += rep.WireSize()
			for _, prob := range rep.Probs {
				edgeSat = edgeSat || prob >= model.Threshold
			}
		}

		if ok && ok2 {
			decisions++
			if central.Apps()["shop"].Raw == edgeSat {
				agreements++
			}
		}
	}

	fmt.Printf("\ndecisions compared:        %d\n", decisions)
	fmt.Printf("architectures agree:       %d (%.1f%%)\n", agreements, 100*float64(agreements)/float64(decisions))
	fmt.Printf("centralized traffic:       %d bytes\n", centralBytes)
	fmt.Printf("edge-inference traffic:    %d bytes\n", edgeBytes)
	fmt.Printf("reduction:                 %.0fx\n", float64(centralBytes)/float64(edgeBytes))
	fmt.Printf("bytes saved (agent view):  %d\n", edgeAgent.BytesSaved)
}

// wireSize estimates the bytes of the centralized architecture's
// full-vector message on the terms of PredictionReport.WireSize: a small
// framing overhead plus each instance's ID and its float64 values.
func wireSize(obs pcp.WireObservation) int {
	size := 8
	for _, smp := range obs.Samples {
		size += len(smp.Instance) + 8*len(smp.Values)
	}
	return size
}
