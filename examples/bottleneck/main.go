// Bottleneck analysis: monitorless as a black-box diagnosis tool. Run the
// 14-service Sockshop under a load spike and ask the Service *which*
// service instances it predicts saturated — without touching a single
// application metric (§1: "it can be used as a basis for ... performance
// bottleneck analysis").
package main

import (
	"fmt"
	"log"
	"sort"

	"monitorless"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/pcp"
	"monitorless/internal/workload"
)

func main() {
	log.SetFlags(0)

	fmt.Println("training a compact monitorless model...")
	report, err := monitorless.GenerateTrainingData(monitorless.DataOptions{
		Runs:        []int{1, 6, 8, 10, 22, 23},
		Duration:    300,
		RampSeconds: 250,
		Seed:        3,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := monitorless.DefaultTrainConfig()
	cfg.Forest.NumTrees = 40
	cfg.Pipeline.FilterTrees = 15
	model, err := monitorless.Train(report.Dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Sockshop across the three evaluation hosts, pushed past the
	// front-end's capacity by a strong Locust run.
	c, err := cluster.New(apps.EvalNodes()...)
	if err != nil {
		log.Fatal(err)
	}
	shop, err := apps.NewSockshop(c, workload.LocustHatch{
		MaxUsers: 700, RatePerUser: 0.35, Start: 0, HatchDuration: 120, HoldDuration: 240,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := apps.NewEngine(c, shop)
	if err != nil {
		log.Fatal(err)
	}

	agent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 9))
	svc, err := monitorless.NewService(model)
	if err != nil {
		log.Fatal(err)
	}

	// Count per-instance saturation predictions over the run.
	hits := map[string]int{}
	ticks := 0
	for t := 0; t < 300; t++ {
		eng.Tick()
		obs, ok := agent.Observe(eng)
		if !ok {
			continue
		}
		sat, err := svc.Predict(obs)
		if err != nil {
			log.Fatal(err)
		}
		for id := range sat {
			hits[id]++
		}
		ticks++
	}

	type row struct {
		id string
		n  int
	}
	var rows []row
	for id, n := range hits {
		rows = append(rows, row{id, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })

	fmt.Printf("\nsaturation predictions over %d seconds (load peaked at %.0f req/s):\n", ticks, 700*0.35)
	if len(rows) == 0 {
		fmt.Println("  no instance was ever predicted saturated")
		return
	}
	for _, r := range rows {
		bar := ""
		for i := 0; i < r.n*40/ticks; i++ {
			bar += "#"
		}
		fmt.Printf("  %-28s %4d ticks  %s\n", r.id, r.n, bar)
	}
	fmt.Printf("\n→ the bottleneck is %s; scale that service first.\n", rows[0].id)
}
