package pcp

import (
	"monitorless/internal/apps"
	"monitorless/internal/cluster"
)

// Agent is the paper's per-node monitoring agent (§2): it samples the
// collector once per second, converts counter metrics into rates using the
// previous reading, and emits one combined metric vector per service
// instance (host metrics ∥ container metrics, the paper's M_{I,t}).
type Agent struct {
	col  *Collector
	prev *rawTick
	// schemaHash is the catalog's SchemaHash, stamped on every Observe.
	schemaHash string

	// Processed slabs, reused across ticks (rebuilt on plan change).
	gen      uint64
	hostProc [][]float64 // by plan node index
	vecs     [][]float64 // by plan ref index: host ∥ container processed
	ts       TickSample
	samples  []WireSample // Observe's samples, reused across ticks
}

// NewAgent returns an agent over the collector.
func NewAgent(col *Collector) *Agent {
	return &Agent{col: col, schemaHash: col.Catalog().SchemaHash()}
}

// TickSample is one tick's processed per-instance vectors in the agent's
// reusable slab, ordered by container ID. Contents are only valid until
// the next ObserveTick call: callers that retain a vector must copy it.
type TickSample struct {
	// T is the simulation second.
	T int

	n    int
	plan *collectPlan
	vecs [][]float64
}

// Len returns the number of instances observed this tick.
func (ts *TickSample) Len() int { return ts.n }

// Container returns the i-th instance's container (ID-sorted order).
func (ts *TickSample) Container(i int) *cluster.Container { return ts.plan.refs[i].ctr }

// Vector returns the i-th instance's combined processed vector, laid out
// as Catalog.CombinedDefs(). The slice is reused next tick.
func (ts *TickSample) Vector(i int) []float64 { return ts.vecs[i] }

// Index returns the sample index of the given container via its cluster
// slot (no string hashing), or -1 if it was not observed this tick.
func (ts *TickSample) Index(ctr *cluster.Container) int {
	if ts.n == 0 || ctr == nil {
		return -1
	}
	s := ctr.Slot()
	if s < 0 || int(s) >= len(ts.plan.refOfSlot) {
		return -1
	}
	ri := ts.plan.refOfSlot[s]
	if ri < 0 || ts.plan.refs[ri].ctr != ctr {
		return -1
	}
	return int(ri)
}

// ObserveTick samples the engine and returns the tick's processed vectors
// in the agent's reusable slab — the frame-native hot path: no maps, no
// steady-state allocations. The first call after construction (or after
// the engine's cluster changed) returns ok=false because counters need
// two readings to become rates.
func (a *Agent) ObserveTick(eng *apps.Engine) (ts *TickSample, ok bool) {
	cur := a.col.collectRaw(eng)
	prev := a.prev
	a.prev = cur
	a.ts.T = cur.t
	if prev == nil || prev.cluster != cur.cluster {
		a.ts.n = 0
		return &a.ts, false
	}
	dt := float64(cur.t - prev.t)
	if dt <= 0 {
		dt = 1
	}
	cat := a.col.Catalog()
	p := &a.col.plan
	hostW := len(cat.HostDefs)
	ctrW := len(cat.ContainerDefs)

	if a.gen != a.col.planGen || len(a.vecs) != len(p.refs) {
		for len(a.hostProc) < len(p.nodes) {
			a.hostProc = append(a.hostProc, make([]float64, hostW))
		}
		if cap(a.vecs) < len(p.refs) {
			a.vecs = make([][]float64, len(p.refs))
		}
		a.vecs = a.vecs[:len(p.refs)]
		for i := range a.vecs {
			if a.vecs[i] == nil {
				a.vecs[i] = make([]float64, hostW+ctrW)
			}
		}
		a.gen = a.col.planGen
	}

	// Node indices are stable within one cluster, so prev.host lines up
	// with the current plan even across topology changes.
	for ni := range p.nodes {
		processInto(cat.HostDefs, cur.host[ni], prev.host[ni], dt, a.hostProc[ni])
	}
	for i := range p.refs {
		r := &p.refs[i]
		vec := a.vecs[i]
		copy(vec[:hostW], a.hostProc[r.node])
		// The previous reading for this slot only counts if the same
		// container owned it: a reused slot is a new container, whose
		// counters have no baseline yet (zero rates, as before).
		var prevCtr []float64
		if int(r.slot) < len(prev.owner) && prev.owner[r.slot] == r.ctr {
			prevCtr = prev.ctr[r.slot]
		}
		processInto(cat.ContainerDefs, cur.ctr[r.slot], prevCtr, dt, vec[hostW:])
	}
	a.ts.n = len(p.refs)
	a.ts.plan = p
	a.ts.vecs = a.vecs
	return &a.ts, true
}

// Observe samples the engine and returns the tick as the wire form the
// serving plane ingests: one sample per instance in container-ID order,
// Instance set to the container ID, stamped with the catalog's schema
// hash. Under TickSample's rule the samples slice and every Values
// vector alias the agent's reusable slabs, so they are only valid until
// the next Observe or ObserveTick call. Like ObserveTick, it returns
// ok=false (and no samples) while the counters have no rate baseline.
func (a *Agent) Observe(eng *apps.Engine) (obs WireObservation, ok bool) {
	ts, ok := a.ObserveTick(eng)
	obs = WireObservation{T: ts.T, SchemaHash: a.schemaHash}
	if !ok {
		return obs, false
	}
	a.samples = a.samples[:0]
	for i := 0; i < ts.Len(); i++ {
		a.samples = append(a.samples, WireSample{Instance: ts.Container(i).ID, Values: ts.Vector(i)})
	}
	obs.Samples = a.samples
	return obs, true
}

// processInto converts counters to per-second rates against prev, writing
// into out; other kinds pass through. A nil prev (new container) yields
// zero rates.
func processInto(defs []MetricDef, cur, prev []float64, dt float64, out []float64) {
	for i, d := range defs {
		if d.Kind == Counter {
			if prev == nil || i >= len(prev) {
				out[i] = 0
				continue
			}
			rate := (cur[i] - prev[i]) / dt
			if rate < 0 {
				rate = 0 // counter wrap/restart
			}
			out[i] = rate
		} else {
			out[i] = cur[i]
		}
	}
}
