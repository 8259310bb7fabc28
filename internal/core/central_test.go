package core_test

import (
	"fmt"
	"slices"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// The tests in this file pin the orchestrator of §2 — the central
// component that receives the agents' vectors, scores each container with
// the core model and ORs the verdicts per application. serving.Service is
// that component.

// classExemplars returns one saturated and one idle raw vector of run 1
// (solr), which holds both classes.
func classExemplars(t *testing.T, ds *dataset.Dataset) (sat, idle []float64) {
	t.Helper()
	fr := ds.FilterRuns(1).Frame()
	for i, l := range fr.Labels() {
		if l == 1 && sat == nil {
			sat = fr.Row(i, nil)
		}
		if l == 0 && idle == nil {
			idle = fr.Row(i, nil)
		}
	}
	if sat == nil || idle == nil {
		t.Fatal("run 1 lacks one of the classes")
	}
	return sat, idle
}

// newCentral builds a Service on the shared core model and returns an
// ingest func that feeds one observation per call at increasing ticks.
func newCentral(t *testing.T, m *core.Model) (*serving.Service, func(...pcp.WireSample)) {
	t.Helper()
	svc, err := serving.New(serving.Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	tick := 0
	return svc, func(smps ...pcp.WireSample) {
		t.Helper()
		resp, err := svc.Ingest(pcp.WireObservation{T: tick, Samples: smps})
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		svc.PutResponse(resp)
		tick++
	}
}

// TestOrchestratorORAggregation: an app is saturated when any of its
// instances is (a logical OR), and forgetting the saturated instance
// clears it.
func TestOrchestratorORAggregation(t *testing.T) {
	m, ds := core.SharedModel(t)
	satVec, idleVec := classExemplars(t, ds)
	svc, ingest := newCentral(t, m)

	web := pcp.WireSample{Instance: "shop/web/0", Values: satVec}
	db := pcp.WireSample{Instance: "shop/db/0", Values: idleVec}
	for i := 0; i < m.WindowSize()+2; i++ {
		ingest(web, db)
	}

	pw, ok := svc.InstancePrediction(web.Instance)
	if !ok {
		t.Fatal("missing prediction for shop/web/0")
	}
	pd, ok := svc.InstancePrediction(db.Instance)
	if !ok {
		t.Fatal("missing prediction for shop/db/0")
	}
	if !pw.Saturated {
		t.Errorf("saturated vector not flagged (prob %.2f)", pw.Prob)
	}
	if pd.Saturated {
		t.Errorf("idle vector flagged saturated (prob %.2f)", pd.Prob)
	}
	if st := svc.Apps()["shop"]; !st.Raw || !slices.Equal(st.SaturatedInstances, []string{web.Instance}) {
		t.Errorf("app status %+v, want raw OR set by shop/web/0 alone", st)
	}

	if !svc.Forget(web.Instance) {
		t.Fatal("shop/web/0 unknown at Forget")
	}
	if svc.Apps()["shop"].Raw {
		t.Error("app still saturated after Forget")
	}
}

// TestOrchestratorRegisterInstance: a sample's App field groups an
// instance whose ID does not name its app.
func TestOrchestratorRegisterInstance(t *testing.T) {
	m, ds := core.SharedModel(t)
	svc, ingest := newCentral(t, m)
	ingest(pcp.WireSample{Instance: "weird-id", App: "myapp", Values: ds.Frame().Row(0, nil)})
	if p, _ := svc.InstancePrediction("weird-id"); p.App != "myapp" {
		t.Fatalf("explicit App ignored: %+v", p)
	}
	if st, ok := svc.Apps()["myapp"]; !ok || st.Instances != 1 {
		t.Fatalf("app myapp status %+v (ok=%v), want 1 instance", st, ok)
	}
}

// TestOrchestratorInstanceChurn exercises scale-out/scale-in churn: a
// replica joins mid-stream with a cold window and is detected once its
// window warms, scale-in clears the app, and short-lived instances leave
// no state behind.
func TestOrchestratorInstanceChurn(t *testing.T) {
	m, ds := core.SharedModel(t)
	satVec, idleVec := classExemplars(t, ds)
	svc, ingest := newCentral(t, m)

	a, b, replica := pcp.WireSample{Instance: "app/a/0", Values: idleVec},
		pcp.WireSample{Instance: "app/b/0", Values: idleVec},
		pcp.WireSample{Instance: "app/a/r1", Values: satVec}

	w := m.WindowSize()
	for i := 0; i < w; i++ {
		ingest(a, b)
	}
	if svc.Apps()["app"].Raw {
		t.Fatal("idle phase flagged saturated")
	}

	// A replica joins cold and reports saturated vectors; the others stay
	// idle, and the app's OR follows the replica alone.
	for i := 0; i < w+2; i++ {
		ingest(a, b, replica)
	}
	if st := svc.Apps()["app"]; !st.Raw || !slices.Equal(st.SaturatedInstances, []string{replica.Instance}) {
		t.Fatalf("app status %+v, want raw OR set by the replica alone", st)
	}

	// Scale-in clears the app although the replica's last verdict was
	// positive.
	if !svc.Forget(replica.Instance) {
		t.Fatal("replica unknown at scale-in")
	}
	if svc.Apps()["app"].Raw {
		t.Fatal("app still saturated after the replica was forgotten")
	}

	// Short-lived instances leave only the two originals behind.
	for k := 0; k < 20; k++ {
		id := fmt.Sprintf("app/tmp/%d", k)
		ingest(pcp.WireSample{Instance: id, Values: idleVec})
		svc.Forget(id)
	}
	if apps := svc.Apps(); len(apps) != 1 || apps["app"].Instances != 2 {
		t.Fatalf("Apps() = %+v, want just app with its 2 instances", apps)
	}
}
