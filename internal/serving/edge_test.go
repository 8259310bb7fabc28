package serving

import (
	"errors"
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/core"
	"monitorless/internal/pcp"
	"monitorless/internal/workload"
)

// edgeRig is a one-node deployment with a saturating front-end.
func edgeRig(t *testing.T) (*apps.Engine, *cluster.Cluster, *apps.App) {
	t.Helper()
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
	return eng, c, app
}

// TestEdgeAgentMatchesCentral runs both §5 architectures side by side on
// one simulated deployment: a central Service fed full observations, and
// an EdgeAgent that scores next to the agent and ships only probability
// reports. Both score on a Service, so every report probability must
// equal the central InstancePrediction to the bit — on the fused key-slab
// route (exact and hist model alike), on the float route (a copy of the
// exact model with its compiled form dropped, as a forest past the
// packed word's limits runs), and across a Forget/re-register of an
// instance.
func TestEdgeAgentMatchesCentral(t *testing.T) {
	exact, _ := sharedTestModel(t)
	floatForest := *exact.Forest
	floatForest.DropQuant()
	float := *exact
	float.Forest = &floatForest
	for name, m := range map[string]*core.Model{
		"float-route":       &float,
		"fused-route":       histTestModel(t),
		"fused-route-exact": exact,
	} {
		t.Run(name, func(t *testing.T) {
			if fused := m.Forest.Quant() != nil; fused != (name != "float-route") {
				t.Fatalf("%s: model compiled for the fused route = %v", name, fused)
			}
			eng, _, _ := edgeRig(t)

			// Two agents over identically seeded collectors observe the
			// same vectors (the edge agent's are not otherwise visible to
			// the test).
			centralAgent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21))
			central, err := New(Config{Model: m})
			if err != nil {
				t.Fatal(err)
			}
			edge, err := NewEdgeAgent(pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21)), m)
			if err != nil {
				t.Fatal(err)
			}

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
				if len(rep.Probs) != len(obs.Samples) {
					t.Fatalf("tick %d: report covers %d instances, observation %d", tick, len(rep.Probs), len(obs.Samples))
				}
				for _, smp := range obs.Samples {
					id := smp.Instance
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
					id := obs.Samples[0].Instance
					if !central.Forget(id) {
						t.Fatalf("central service did not know %s", id)
					}
					if !edge.Forget(id) {
						t.Fatalf("edge agent did not know %s", id)
					}
				}
			}
			if compared == 0 {
				t.Fatal("no predictions compared")
			}
		})
	}
}

// TestEdgeAgentForgetsDepartedInstances: a replica that leaves the node
// drops out of the agent's observation, and the edge agent releases its
// feature state on that tick.
func TestEdgeAgentForgetsDepartedInstances(t *testing.T) {
	m, _ := sharedTestModel(t)
	eng, c, app := edgeRig(t)
	edge, err := NewEdgeAgent(pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21)), m)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(want int) {
		t.Helper()
		eng.Tick()
		rep, ok, err := edge.Observe(eng)
		if err != nil || !ok || len(rep.Probs) != want {
			t.Fatalf("report over %d instances (ok=%v, err=%v), want %d", len(rep.Probs), ok, err, want)
		}
	}
	eng.Tick()
	edge.Observe(eng) // rate baseline
	observe(2)

	const replica = "shop/web/r0"
	web, _ := app.Service("web")
	ctr := &cluster.Container{ID: replica, Service: "web", App: "shop", CPULimit: 3}
	if err := c.Place("edge-1", ctr); err != nil {
		t.Fatal(err)
	}
	web.AddInstance(ctr)
	observe(3)
	observe(3)

	web.RemoveInstance(replica)
	if err := c.Remove(replica); err != nil {
		t.Fatal(err)
	}
	observe(2)
	if edge.Forget(replica) {
		t.Fatalf("%s left the node but the edge agent still held its state", replica)
	}
	if !edge.Forget("shop/web/0") {
		t.Fatal("edge agent lost a live instance")
	}
}

// TestPredictRefusesForeignSchema: an agent stamps its own catalog's
// schema hash, so an observation laid out against another catalog is
// refused before any state moves.
func TestPredictRefusesForeignSchema(t *testing.T) {
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	eng, _, _ := edgeRig(t)
	agent := pcp.NewAgent(pcp.NewCollector(pcp.FullCatalog(), 21))
	for tick := 0; tick < 2; tick++ {
		eng.Tick()
		obs, ok := agent.Observe(eng)
		if !ok {
			continue
		}
		if obs.SchemaHash != pcp.FullCatalog().SchemaHash() {
			t.Fatalf("agent stamped %q, want its catalog's hash", obs.SchemaHash)
		}
		if _, err := svc.Predict(obs); !errors.Is(err, ErrSchemaMismatch) {
			t.Fatalf("full-catalog observation: got %v, want ErrSchemaMismatch", err)
		}
		if st := svc.Stats(); st.Instances != 0 {
			t.Fatalf("refused observation registered %d instances", st.Instances)
		}
		return
	}
	t.Fatal("agent produced no observation")
}

// TestEdgeAgentSavesTraffic: a full observation of realistic width
// dwarfs the per-instance probability report.
func TestEdgeAgentSavesTraffic(t *testing.T) {
	obs := pcp.WireObservation{T: 1, Samples: []pcp.WireSample{{Instance: "app/svc/0", Values: make([]float64, 290)}}}
	rep := PredictionReport{T: 1, Probs: map[string]float64{"app/svc/0": 0.5}}
	full := observationWireSize(obs)
	compact := rep.WireSize()
	if full < 50*compact {
		t.Errorf("expected ≥50x reduction, got %d vs %d bytes", full, compact)
	}
}
