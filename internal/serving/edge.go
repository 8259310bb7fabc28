package serving

import (
	"fmt"

	"monitorless/internal/apps"
	"monitorless/internal/core"
	"monitorless/internal/pcp"
)

// Agent-side inference (the paper's §5 "Refine the architecture"): run
// the model next to the monitoring agent and ship one probability per
// instance instead of its full metric vector, trading agent CPU for
// network traffic.

// PredictionReport is the compact agent→center message of the offloaded
// architecture: per-instance probabilities instead of full metric
// vectors.
type PredictionReport struct {
	// T is the observation second.
	T int
	// Probs maps instance ID to P(saturated).
	Probs map[string]float64
}

// WireSize estimates the serialized bytes of the report (id strings plus
// one float each, with a small framing overhead).
func (r PredictionReport) WireSize() int {
	size := 8
	for id := range r.Probs {
		size += len(id) + 8
	}
	return size
}

// observationWireSize estimates the serialized bytes of the centralized
// architecture's full-vector message, on the same terms as WireSize.
func observationWireSize(obs pcp.WireObservation) int {
	size := 8
	for _, smp := range obs.Samples {
		size += len(smp.Instance) + 8*len(smp.Values)
	}
	return size
}

// EdgeAgent runs the saturation model next to the monitoring agent: it
// ingests the agent's observations into its own Service — the fleet-state
// holder the central component runs, so edge and central probabilities
// are bit-identical — and emits only PredictionReports.
type EdgeAgent struct {
	agent *pcp.Agent
	svc   *Service
	live  []string // the last observation's instance IDs, in ID order

	// BytesSaved accumulates the traffic difference versus shipping the
	// raw vectors (the quantity §5 wants to trade against agent CPU).
	BytesSaved int
}

// NewEdgeAgent wraps a monitoring agent with local inference over the
// model. Drift monitoring is off: the edge only scores.
func NewEdgeAgent(agent *pcp.Agent, model *core.Model) (*EdgeAgent, error) {
	svc, err := New(Config{Model: model, DriftWindow: -1})
	if err != nil {
		return nil, fmt.Errorf("serving: edge agent: %w", err)
	}
	return &EdgeAgent{agent: agent, svc: svc}, nil
}

// Observe samples the engine, infers locally, and returns the compact
// report. ok is false until the agent has a rate baseline. An
// observation the Service refuses (a duplicate or empty instance ID, a
// wrong width, another catalog's schema) changes no state. The agent
// sees its whole node, so an instance the previous observation carried
// and this one does not has left it: Observe forgets it.
func (e *EdgeAgent) Observe(eng *apps.Engine) (PredictionReport, bool, error) {
	obs, ok := e.agent.Observe(eng)
	if !ok {
		return PredictionReport{T: obs.T}, false, nil
	}
	report := PredictionReport{T: obs.T, Probs: make(map[string]float64, len(obs.Samples))}
	if len(obs.Samples) > 0 {
		resp, err := e.svc.Ingest(obs)
		if err != nil {
			return PredictionReport{}, false, fmt.Errorf("serving: edge predict: %w", err)
		}
		for id, p := range resp.Predictions {
			report.Probs[id] = p.Prob
		}
		e.svc.PutResponse(resp)
		e.BytesSaved += observationWireSize(obs) - report.WireSize()
	}
	e.forgetDeparted(obs.Samples)
	return report, true, nil
}

// forgetDeparted releases every instance of the previous observation that
// smps no longer carries. Both lists are in container-ID order.
func (e *EdgeAgent) forgetDeparted(smps []pcp.WireSample) {
	j := 0
	for _, id := range e.live {
		for j < len(smps) && smps[j].Instance < id {
			j++
		}
		if j == len(smps) || smps[j].Instance != id {
			e.Forget(id)
		}
	}
	e.live = e.live[:0]
	for _, smp := range smps {
		e.live = append(e.live, smp.Instance)
	}
}

// Forget drops a departed instance's feature state and reports whether
// the edge knew it. Observe calls it for every instance that leaves the
// node; a caller that knows of a departure first may call it directly.
func (e *EdgeAgent) Forget(id string) bool { return e.svc.Forget(id) }
