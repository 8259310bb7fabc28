package core

import (
	"fmt"
	"testing"

	"monitorless/internal/pcp"
)

// TestOrchestratorInstanceChurn exercises scale-out/scale-in churn: new
// instances appear mid-stream with cold windows, old ones are forgotten,
// and the orchestrator never confuses their states.
func TestOrchestratorInstanceChurn(t *testing.T) {
	m, ds := sharedModel(t)
	o := NewOrchestrator(m)

	var satVec, idleVec []float64
	for _, s := range ds.FilterRuns(1).Samples {
		if s.Label == 1 && satVec == nil {
			satVec = s.Values
		}
		if s.Label == 0 && idleVec == nil {
			idleVec = s.Values
		}
	}
	if satVec == nil || idleVec == nil {
		t.Fatal("missing class exemplars")
	}

	w := m.WindowSize()
	// Phase 1: two idle instances.
	for i := 0; i < w; i++ {
		obs := pcp.Observation{T: i, Vectors: map[string][]float64{
			"app/a/0": idleVec,
			"app/b/0": idleVec,
		}}
		if err := o.Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if o.AppSaturated("app") {
		t.Fatal("idle phase flagged saturated")
	}

	// Phase 2: a replica joins with a cold window and immediately reports
	// saturated vectors; existing instances stay idle.
	for i := w; i < 2*w+2; i++ {
		obs := pcp.Observation{T: i, Vectors: map[string][]float64{
			"app/a/0":  idleVec,
			"app/b/0":  idleVec,
			"app/a/r1": satVec,
		}}
		if err := o.Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if !o.AppSaturated("app") {
		t.Fatal("saturated replica not detected after its window warmed")
	}
	sat := o.SaturatedInstances()
	if len(sat) != 1 || sat[0] != "app/a/r1" {
		t.Fatalf("SaturatedInstances = %v, want only the replica", sat)
	}

	// Phase 3: scale-in removes the replica; the app clears even though
	// the replica's last prediction was positive.
	o.Forget("app/a/r1")
	if o.AppSaturated("app") {
		t.Fatal("app still saturated after the replica was forgotten")
	}

	// Phase 4: many short-lived instances must not leak state: forget
	// them all and verify the prediction map holds only the two originals.
	for k := 0; k < 20; k++ {
		id := fmt.Sprintf("app/tmp/%d", k)
		obs := pcp.Observation{T: 100 + k, Vectors: map[string][]float64{id: idleVec}}
		if err := o.Ingest(obs); err != nil {
			t.Fatal(err)
		}
		o.Forget(id)
	}
	preds := o.AppPredictions()
	if len(preds) != 1 {
		t.Fatalf("AppPredictions = %v, want just 'app'", preds)
	}
}

// TestOrchestratorColdWindowIsUsable verifies that predictions work from
// the very first observation (short windows are valid inputs).
func TestOrchestratorColdWindow(t *testing.T) {
	m, ds := sharedModel(t)
	o := NewOrchestrator(m)
	vec := ds.Samples[0].Values
	if err := o.Ingest(pcp.Observation{T: 0, Vectors: map[string][]float64{"x/y/0": vec}}); err != nil {
		t.Fatalf("cold-window ingest failed: %v", err)
	}
	if _, ok := o.InstancePrediction("x/y/0"); !ok {
		t.Fatal("no prediction from a single observation")
	}
}

// TestOrchestratorIngestAtomic: an observation carrying one wrong-width
// vector is rejected whole. No instance's prediction moves, and the next
// good observation yields exactly what an orchestrator that never saw the
// bad one computes — i.e. no instance's feature state advanced either.
func TestOrchestratorIngestAtomic(t *testing.T) {
	m, ds := sharedModel(t)
	rows := ds.FilterRuns(1).Samples
	ids := []string{"app/a/0", "app/b/0", "app/c/0"}
	obsAt := func(i int) pcp.Observation {
		vecs := make(map[string][]float64, len(ids))
		for k, id := range ids {
			vecs[id] = rows[(i+7*k)%len(rows)].Values
		}
		return pcp.Observation{T: i, Vectors: vecs}
	}

	o, twin := NewOrchestrator(m), NewOrchestrator(m)
	for i := 0; i < 5; i++ {
		for _, orch := range []*Orchestrator{o, twin} {
			if err := orch.Ingest(obsAt(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Several attempts: map iteration order decides which instances a
	// non-atomic ingest would have advanced before reaching the bad one.
	for try := 0; try < 8; try++ {
		bad := obsAt(100 + try)
		bad.Vectors["app/b/0"] = bad.Vectors["app/b/0"][:3]
		bad.Vectors["app/new/0"] = bad.Vectors["app/a/0"] // must not get registered
		if err := o.Ingest(bad); err == nil {
			t.Fatal("wrong-width vector accepted")
		}
		for _, id := range ids {
			got, _ := o.InstancePrediction(id)
			want, _ := twin.InstancePrediction(id)
			if got != want {
				t.Fatalf("rejected observation changed %s: %+v, want %+v", id, got, want)
			}
		}
		if _, ok := o.InstancePrediction("app/new/0"); ok {
			t.Fatal("rejected observation registered a new instance")
		}
	}

	for i := 5; i < 5+2*m.WindowSize(); i++ {
		for _, orch := range []*Orchestrator{o, twin} {
			if err := orch.Ingest(obsAt(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			got, _ := o.InstancePrediction(id)
			want, _ := twin.InstancePrediction(id)
			if got != want {
				t.Fatalf("tick %d %s: after a rejected observation %+v, never-failed twin %+v", i, id, got, want)
			}
		}
	}
}
