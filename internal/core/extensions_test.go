package core

import (
	"strings"
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/pcp"
	"monitorless/internal/workload"
)

func TestDistillReadableRules(t *testing.T) {
	m, ds := sharedModel(t)
	rules, _, err := m.Distill(ds.Frame(), 3)
	if err != nil {
		t.Fatalf("Distill: %v", err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules distilled")
	}
	// At least one saturation rule, rendered with real feature names.
	foundSat := false
	for _, r := range rules {
		if r.Saturated {
			foundSat = true
			if len(r.Conditions) == 0 {
				continue
			}
			if strings.Contains(r.Conditions[0], "f0") {
				t.Errorf("rule uses fallback names: %q", r)
			}
		}
	}
	if !foundSat {
		t.Error("no saturation rule in the distillation")
	}
	// Rules are sorted: saturation rules first.
	if !rules[0].Saturated {
		t.Error("saturation rules should sort first")
	}
}

func TestDistillFidelityGrowsWithDepth(t *testing.T) {
	m, ds := sharedModel(t)
	raw := ds.Frame()
	_, shallow, err := m.Distill(raw, 2)
	if err != nil {
		t.Fatalf("Distill: %v", err)
	}
	_, deep, err := m.Distill(raw, 6)
	if err != nil {
		t.Fatal(err)
	}
	if shallow < 0.7 {
		t.Errorf("depth-2 fidelity %.2f, want a faithful surrogate (CPU rules explain most of the model)", shallow)
	}
	if deep < shallow-1e-9 {
		t.Errorf("deeper surrogate less faithful: %.3f vs %.3f", deep, shallow)
	}
}

// TestEdgeAgentMatchesCentral runs both §5 architectures side by side on
// one simulated deployment: a central orchestrator fed full observations,
// and a real EdgeAgent whose compact reports feed a second orchestrator.
// Both score on the same engine code, so the probabilities must be equal
// to the bit, including across a Forget/re-register of an instance.
func TestEdgeAgentMatchesCentral(t *testing.T) {
	m, _ := sharedModel(t)

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

	// Two agents over identically seeded collectors observe the same
	// vectors (the edge agent's are not otherwise visible to the test).
	centralAgent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21))
	central := NewOrchestrator(m)
	edge := NewEdgeAgent(pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), 21)), m)
	edgeOrch := NewOrchestrator(m)

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
		if err := central.Ingest(obs); err != nil {
			t.Fatal(err)
		}
		edgeOrch.IngestReport(rep)
		if len(rep.Probs) != len(obs.Vectors) {
			t.Fatalf("tick %d: report covers %d instances, observation %d", tick, len(rep.Probs), len(obs.Vectors))
		}
		for id := range obs.Vectors {
			pc, _ := central.InstancePrediction(id)
			pe, _ := edgeOrch.InstancePrediction(id)
			if pc != pe {
				t.Fatalf("tick %d %s: central %+v, edge %+v", tick, id, pc, pe)
			}
			compared++
		}
		if tick == m.WindowSize() {
			// A departed-and-replaced instance restarts its feature state
			// on both sides.
			for id := range obs.Vectors {
				central.Forget(id)
				edge.Forget(id)
				break
			}
		}
	}
	if compared == 0 {
		t.Fatal("no predictions compared")
	}
}

func TestEdgeAgentSavesTraffic(t *testing.T) {
	// Wire-size accounting: a full observation of realistic width dwarfs
	// the per-instance probability report.
	vec := make([]float64, 290)
	obs := pcp.Observation{T: 1, Vectors: map[string][]float64{"app/svc/0": vec}}
	rep := PredictionReport{T: 1, Probs: map[string]float64{"app/svc/0": 0.5}}
	full := ObservationWireSize(obs)
	compact := rep.WireSize()
	if full < 50*compact {
		t.Errorf("expected ≥50x reduction, got %d vs %d bytes", full, compact)
	}
}

func TestPredictionReportNaNIgnored(t *testing.T) {
	m, _ := sharedModel(t)
	o := NewOrchestrator(m)
	o.IngestReport(PredictionReport{T: 0, Probs: map[string]float64{"x": nan()}})
	if _, ok := o.InstancePrediction("x"); ok {
		t.Error("NaN probability should be dropped")
	}
}

func nan() float64 {
	var z float64
	return z / z
}
