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

	// Processed slabs, reused across ticks (rebuilt on plan change).
	gen      uint64
	hostProc [][]float64 // by plan node index
	vecs     [][]float64 // by plan ref index: host ∥ container processed
	ts       TickSample
}

// NewAgent returns an agent over the collector.
func NewAgent(col *Collector) *Agent {
	return &Agent{col: col}
}

// Observation carries the processed per-instance vectors for one tick.
// It is the wire-path boundary form: the map and its vectors are freshly
// allocated on every Observe call, so callers may retain them. Map
// iteration order is irrelevant by construction — every consumer either
// looks vectors up by ID or sorts the keys before iterating.
type Observation struct {
	// T is the simulation second.
	T int
	// Vectors maps container ID to its combined processed metric vector,
	// laid out as Catalog.CombinedDefs().
	Vectors map[string][]float64
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
// steady-state allocations. The first call after construction or Reset
// (or after the engine's cluster changed) returns ok=false because
// counters need two readings to become rates.
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

// Observe samples the engine and returns processed vectors keyed by
// container ID — the boundary adapter over ObserveTick for the serving
// wire path and other retaining callers: the map and every vector are
// freshly allocated, so they stay valid indefinitely. The first call
// after construction (or Reset) returns ok=false because counters need
// two readings to become rates.
func (a *Agent) Observe(eng *apps.Engine) (obs Observation, ok bool) {
	ts, ok := a.ObserveTick(eng)
	if !ok {
		return Observation{T: ts.T}, false
	}
	obs = Observation{T: ts.T, Vectors: make(map[string][]float64, ts.Len())}
	for i := 0; i < ts.Len(); i++ {
		src := ts.Vector(i)
		vec := make([]float64, len(src))
		copy(vec, src)
		obs.Vectors[ts.Container(i).ID] = vec
	}
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
