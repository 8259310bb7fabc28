package core

import (
	"fmt"
	"sort"
	"sync"

	"monitorless/internal/pcp"
)

// Orchestrator is the paper's §2 central component: it receives the
// agents' per-instance metric vectors, infers per-container saturation
// with the monitorless model, and aggregates instance predictions into
// application decisions with a logical OR (§4). Inference runs on one
// Engine: each observation is a single validate-then-step batch, O(features)
// per sample, bit-identical to the offline PredictFrame path.
type Orchestrator struct {
	mu    sync.Mutex
	model *Model
	eng   *Engine // minted on first Ingest (the streamer build can fail)
	preds map[string]Prediction
	// appOf maps instance ID → application name for aggregation.
	appOf map[string]string
}

// Prediction is one instance's latest inference.
type Prediction struct {
	// Prob is P(saturated).
	Prob float64
	// Saturated applies the model threshold.
	Saturated bool
	// T is the observation second.
	T int
}

// NewOrchestrator returns an orchestrator over a trained model.
func NewOrchestrator(m *Model) *Orchestrator {
	return &Orchestrator{
		model: m,
		preds: make(map[string]Prediction),
		appOf: make(map[string]string),
	}
}

// Model returns the underlying classifier.
func (o *Orchestrator) Model() *Model { return o.model }

// RegisterInstance associates an instance with its application (used by
// the OR aggregation). Ingest auto-registers unknown instances under the
// app name prefix of "<app>/<service>/<n>" IDs when not registered.
func (o *Orchestrator) RegisterInstance(id, app string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.appOf[id] = app
}

// Forget drops an instance's feature state and latest prediction
// (scale-in).
func (o *Orchestrator) Forget(id string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.eng != nil {
		o.eng.Release(id)
	}
	delete(o.preds, id)
	delete(o.appOf, id)
}

// Ingest processes one tick's observation as one engine batch and
// refreshes the instance predictions. It is all-or-nothing: a vector of
// the wrong width rejects the observation before any instance advances.
func (o *Orchestrator) Ingest(obs pcp.Observation) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.eng == nil {
		str, err := o.model.Streamer()
		if err != nil {
			return fmt.Errorf("core: ingest: %w", err)
		}
		o.eng = NewEngine(o.model, str)
	}
	ids, probs, err := o.eng.predictVectors(obs.Vectors)
	if err != nil {
		return fmt.Errorf("core: ingest: %w", err)
	}
	for k, id := range ids {
		o.setPrediction(id, probs[k], obs.T)
	}
	return nil
}

// setPrediction records an instance's probability, auto-registering its
// application. Callers hold o.mu.
func (o *Orchestrator) setPrediction(id string, prob float64, t int) {
	o.preds[id] = Prediction{Prob: prob, Saturated: prob >= o.model.Threshold, T: t}
	if _, known := o.appOf[id]; !known {
		o.appOf[id] = appFromID(id)
	}
}

// appFromID extracts the application from "<app>/<service>/<n>" IDs.
func appFromID(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			return id[:i]
		}
	}
	return id
}

// InstancePrediction returns the latest prediction for one instance.
func (o *Orchestrator) InstancePrediction(id string) (Prediction, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.preds[id]
	return p, ok
}

// SaturatedInstances lists the instances currently predicted saturated,
// sorted by ID.
func (o *Orchestrator) SaturatedInstances() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for id, p := range o.preds {
		if p.Saturated {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// AppSaturated aggregates the instance predictions of one application
// with a logical OR: ŷ_A = ⋁ ŷ_I (§4).
func (o *Orchestrator) AppSaturated(app string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for id, p := range o.preds {
		if o.appOf[id] == app && p.Saturated {
			return true
		}
	}
	return false
}

// AppPredictions returns the OR-aggregated saturation decision per
// application.
func (o *Orchestrator) AppPredictions() map[string]bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]bool)
	for id, p := range o.preds {
		app := o.appOf[id]
		out[app] = out[app] || p.Saturated
	}
	return out
}
