package pcp

import "monitorless/internal/frame"

// Wire encoding for the agents→model-server network path: one observation
// per tick, carrying each instance's processed metric vector in catalog
// order. Values travel positionally; the schema hash pins the sender and
// receiver to the same catalog so a silently reordered or truncated vector
// is rejected instead of mis-predicted.

// WireSample is one instance's processed metric vector on the wire.
type WireSample struct {
	// Instance is the container ID ("<app>/<service>/<n>").
	Instance string `json:"instance"`
	// App and Service override the ID-derived grouping when set.
	App     string `json:"app,omitempty"`
	Service string `json:"service,omitempty"`
	// Values is the combined host∥container vector in catalog order.
	// Samples carry platform metrics only: application KPIs label
	// training data offline and never reach the serving plane.
	Values []float64 `json:"values"`
}

// WireObservation is one tick's batch of samples.
type WireObservation struct {
	// T is the observation second.
	T int `json:"t"`
	// SchemaHash identifies the metric catalog the values are laid out
	// against (Catalog.SchemaHash). Optional; when set, receivers reject
	// mismatches.
	SchemaHash string       `json:"schema_hash,omitempty"`
	Samples    []WireSample `json:"samples"`
}

// SchemaFromDefs maps metric definitions onto the columnar frame schema —
// the single translation from the catalog's metric metadata to the
// feature pipeline's column metadata. Every layer (dataset assembly,
// feature engineering, model bundles, serving) derives its schema and its
// fingerprint from this one mapping.
func SchemaFromDefs(defs []MetricDef) frame.Schema {
	out := make(frame.Schema, len(defs))
	for i, d := range defs {
		out[i] = frame.Col{
			Name:   d.Name,
			Domain: string(d.Domain),
			Util:   d.Kind.IsUtilization(),
			Log:    d.LogScale,
		}
	}
	return out
}

// CombinedNames lists the per-instance schema (host ∥ container) names.
func (c *Catalog) CombinedNames() []string {
	defs := c.CombinedDefs()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// FrameSchema returns the catalog's combined per-instance schema as a
// columnar frame schema.
func (c *Catalog) FrameSchema() frame.Schema { return SchemaFromDefs(c.CombinedDefs()) }

// SchemaHash fingerprints the catalog's combined per-instance schema
// (frame.Schema.Hash over FrameSchema, covering names, domains and the
// utilization/log flags).
func (c *Catalog) SchemaHash() string { return c.FrameSchema().Hash() }
