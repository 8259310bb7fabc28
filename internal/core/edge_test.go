package core_test

import (
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/core"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
	"monitorless/internal/workload"
)

// TestEdgeAgentMatchesCentral runs both §5 architectures side by side on
// one simulated deployment: a central serving.Service fed full
// observations, and a real EdgeAgent that scores next to the agent and
// ships only probability reports. Both score on core.Engine, so every
// report probability must equal the Service's InstancePrediction to the
// bit — on the fused key-slab route (exact and hist model alike), on the
// float route (a copy of the exact model with its compiled form dropped,
// as a forest past the packed word's limits runs), and across a
// Forget/re-register of an instance.
func TestEdgeAgentMatchesCentral(t *testing.T) {
	exact, _ := core.SharedModel(t)
	floatForest := *exact.Forest
	floatForest.DropQuant()
	float := *exact
	float.Forest = &floatForest
	for name, m := range map[string]*core.Model{
		"float-route":       &float,
		"fused-route":       core.SharedHistModel(t),
		"fused-route-exact": exact,
	} {
		t.Run(name, func(t *testing.T) {
			if fused := m.Forest.Quant() != nil; fused != (name != "float-route") {
				t.Fatalf("%s: model compiled for the fused route = %v", name, fused)
			}
			c, err := cluster.New(apps.TrainingNode("edge-1"))
			if err != nil {
				t.Fatal(err)
			}
			app, err := apps.Build(c, "shop", workload.Sine{Min: 50, Max: 1200, Period: 60},
				[]apps.ServiceSpec{
					{Name: "web", Node: "edge-1", Profile: apps.SolrProfile(), Visit: 1, CPULimit: 3},
					{Name: "db", Node: "edge-1", Profile: apps.MemcacheProfile(), Visit: 2, CPULimit: 2},
				})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := apps.NewEngine(c, app)
			if err != nil {
				t.Fatal(err)
			}

			// Two agents over identically seeded collectors observe the
			// same vectors (the edge agent's are not otherwise visible to
			// the test).
			centralAgent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21))
			central, err := serving.New(serving.Config{Model: m})
			if err != nil {
				t.Fatal(err)
			}
			edge := core.NewEdgeAgent(pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21)), m)

			compared := 0
			for tick := 0; tick < 3*m.WindowSize(); tick++ {
				eng.Tick()
				obs, ok := centralAgent.Observe(eng)
				rep, okEdge, err := edge.Observe(eng)
				if err != nil {
					t.Fatal(err)
				}
				if ok != okEdge {
					t.Fatalf("tick %d: central agent ok=%v, edge agent ok=%v", tick, ok, okEdge)
				}
				if !ok {
					continue
				}
				if _, err := central.Predict(obs); err != nil {
					t.Fatal(err)
				}
				if len(rep.Probs) != len(obs.Vectors) {
					t.Fatalf("tick %d: report covers %d instances, observation %d", tick, len(rep.Probs), len(obs.Vectors))
				}
				for id := range obs.Vectors {
					pc, ok := central.InstancePrediction(id)
					pe, okRep := rep.Probs[id]
					if !ok || !okRep || pc.Prob != pe {
						t.Fatalf("tick %d %s: central %+v (ok=%v), edge %v (ok=%v)", tick, id, pc, ok, pe, okRep)
					}
					if pc.Saturated != (pe >= m.Threshold) {
						t.Fatalf("tick %d %s: central saturated %v at prob %v, threshold %v", tick, id, pc.Saturated, pe, m.Threshold)
					}
					compared++
				}
				if tick == m.WindowSize() {
					// A departed-and-replaced instance restarts its feature
					// state on both sides.
					for id := range obs.Vectors {
						if !central.Forget(id) {
							t.Fatalf("central service did not know %s", id)
						}
						edge.Forget(id)
						break
					}
				}
			}
			if compared == 0 {
				t.Fatal("no predictions compared")
			}
		})
	}
}
