package pcp

import (
	"math"
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/workload"
)

// hostIndex returns the position of a host metric by name, or -1.
func hostIndex(c *Catalog, name string) int {
	for i, d := range c.HostDefs {
		if d.Name == name {
			return i
		}
	}
	return -1
}

func newTestRig(t *testing.T, rate float64, cpuLimit, memLimit float64) (*apps.Engine, *apps.App) {
	t.Helper()
	c, err := cluster.New(apps.TrainingNode("t1"))
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.Build(c, "x", workload.Constant{Rate: rate}, []apps.ServiceSpec{
		{Name: "solr", Node: "t1", Profile: apps.SolrProfile(), Visit: 1, CPULimit: cpuLimit, MemLimitGB: memLimit},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := apps.NewEngine(c, app)
	if err != nil {
		t.Fatal(err)
	}
	return eng, app
}

func TestCatalogShape(t *testing.T) {
	cat := DefaultCatalog()
	if cat.NumHost() < 200 {
		t.Errorf("host catalog has %d metrics, want >= 200", cat.NumHost())
	}
	if len(cat.ContainerDefs) < 45 {
		t.Errorf("container catalog has %d metrics, want >= 45", len(cat.ContainerDefs))
	}
	if got := len(cat.CombinedDefs()); got != cat.NumHost()+len(cat.ContainerDefs) {
		t.Errorf("CombinedDefs length %d", got)
	}
	// Names must be unique within a scope.
	seen := map[string]bool{}
	for _, d := range cat.HostDefs {
		if seen[d.Name] {
			t.Errorf("duplicate host metric %s", d.Name)
		}
		seen[d.Name] = true
	}
	seen = map[string]bool{}
	for _, d := range cat.ContainerDefs {
		if seen[d.Name] {
			t.Errorf("duplicate container metric %s", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestCatalogIndices(t *testing.T) {
	cat := DefaultCatalog()
	if hostIndex(cat, "H-CPU-U") < 0 {
		t.Error("H-CPU-U missing")
	}
	if hostIndex(cat, "network.tcp.currestab") < 0 {
		t.Error("network.tcp.currestab missing (a Table 4 feature)")
	}
	if cat.ContainerIndex("C-CPU-U") < 0 {
		t.Error("C-CPU-U missing")
	}
	if cat.ContainerIndex("cgroup.cpusched.throttled") < 0 {
		t.Error("cgroup.cpusched.throttled missing (a Table 4 feature)")
	}
	if hostIndex(cat, "nope") != -1 || cat.ContainerIndex("nope") != -1 {
		t.Error("missing metric should return -1")
	}
}

func TestCollectorCountersMonotone(t *testing.T) {
	eng, _ := newTestRig(t, 100, 3, 0)
	cat := DefaultCatalog()
	col := NewCollector(cat, 1)
	var prev *rawTick // collectRaw's buffers rotate: the previous tick stays valid
	for i := 0; i < 5; i++ {
		eng.Tick()
		tick := col.collectRaw(eng)
		if prev != nil {
			for node, cur := range tick.host {
				for j, d := range cat.HostDefs {
					if d.Kind == Counter && cur[j] < prev.host[node][j]-1e-9 {
						t.Fatalf("host counter %s decreased", d.Name)
					}
				}
			}
			for slot, cur := range tick.ctr {
				if cur == nil {
					continue
				}
				for j, d := range cat.ContainerDefs {
					if d.Kind == Counter && cur[j] < prev.ctr[slot][j]-1e-9 {
						t.Fatalf("container counter %s decreased", d.Name)
					}
				}
			}
		}
		prev = tick
	}
}

func TestAgentFirstObservationDropped(t *testing.T) {
	eng, _ := newTestRig(t, 100, 3, 0)
	agent := NewAgent(NewCollector(DefaultCatalog(), 2))
	eng.Tick()
	if _, ok := agent.Observe(eng); ok {
		t.Error("first observation must be dropped (no rate baseline)")
	}
	eng.Tick()
	obs, ok := agent.Observe(eng)
	if !ok {
		t.Fatal("second observation must succeed")
	}
	if len(obs.Samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(obs.Samples))
	}
	agent.prev = nil // what a fresh agent starts from
	eng.Tick()
	if _, ok := agent.Observe(eng); ok {
		t.Error("observation after Reset must be dropped")
	}
}

// TestObserveMatchesObserveTick holds Observe's wire form to the slab it
// is built from: on every tick after the first, an agent's observation
// carries the tick, the instance IDs in order and the values bit for bit
// of an identically seeded agent's ObserveTick, stamped with the
// catalog's schema hash.
func TestObserveMatchesObserveTick(t *testing.T) {
	eng := newAllocRig(t)
	wire := NewAgent(NewCollector(DefaultCatalog(), 9))
	slab := NewAgent(NewCollector(DefaultCatalog(), 9))
	for tick := 0; tick < 5; tick++ {
		eng.Tick()
		obs, ok := wire.Observe(eng)
		ts, okTick := slab.ObserveTick(eng)
		if tick == 0 && ok {
			t.Fatal("first observation must be dropped (no rate baseline)")
		}
		if ok != okTick {
			t.Fatalf("tick %d: Observe ok=%v, ObserveTick ok=%v", tick, ok, okTick)
		}
		if obs.SchemaHash != wire.col.Catalog().SchemaHash() {
			t.Fatalf("tick %d: schema hash %q, want the catalog's", tick, obs.SchemaHash)
		}
		if !ok {
			continue
		}
		if obs.T != ts.T || len(obs.Samples) != ts.Len() {
			t.Fatalf("tick %d: observation T=%d with %d samples, slab T=%d with %d", tick, obs.T, len(obs.Samples), ts.T, ts.Len())
		}
		for i, smp := range obs.Samples {
			if smp.Instance != ts.Container(i).ID || smp.App != "" || smp.Service != "" {
				t.Fatalf("tick %d sample %d: %q (app %q, service %q), slab has %q", tick, i, smp.Instance, smp.App, smp.Service, ts.Container(i).ID)
			}
			if i > 0 && obs.Samples[i-1].Instance >= smp.Instance {
				t.Fatalf("tick %d: samples not in ID order at %d", tick, i)
			}
			vec := ts.Vector(i)
			if len(smp.Values) != len(vec) {
				t.Fatalf("tick %d %s: %d values, slab %d", tick, smp.Instance, len(smp.Values), len(vec))
			}
			for j, v := range smp.Values {
				if math.Float64bits(v) != math.Float64bits(vec[j]) {
					t.Fatalf("tick %d %s[%d] = %v, slab %v", tick, smp.Instance, j, v, vec[j])
				}
			}
		}
	}
}

func TestVectorLayoutAndFiniteness(t *testing.T) {
	eng, _ := newTestRig(t, 100, 3, 0)
	cat := DefaultCatalog()
	agent := NewAgent(NewCollector(cat, 3))
	eng.Tick()
	agent.Observe(eng)
	eng.Tick()
	obs, ok := agent.Observe(eng)
	if !ok {
		t.Fatal("expected observation")
	}
	for _, smp := range obs.Samples {
		if len(smp.Values) != cat.NumHost()+len(cat.ContainerDefs) {
			t.Fatalf("vector for %s has %d values, want %d", smp.Instance, len(smp.Values), cat.NumHost()+len(cat.ContainerDefs))
		}
		for j, v := range smp.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("metric %d is %v", j, v)
			}
		}
	}
}

func TestCPUSignalTracksSaturation(t *testing.T) {
	cat := DefaultCatalog()
	cIdx := cat.NumHost() + cat.ContainerIndex("C-CPU-U")
	thrIdx := cat.NumHost() + cat.ContainerIndex("cgroup.cpusched.throttled")

	read := func(rate float64) []float64 {
		eng, _ := newTestRig(t, rate, 3, 0)
		agent := NewAgent(NewCollector(cat, 4))
		var last []float64
		for i := 0; i < 10; i++ {
			eng.Tick()
			if obs, ok := agent.Observe(eng); ok {
				for _, smp := range obs.Samples {
					last = smp.Values
				}
			}
		}
		return last
	}

	idle := read(50)   // far below the ~857 r/s capacity
	busy := read(2000) // deep overload

	if idle[cIdx] > 30 {
		t.Errorf("idle C-CPU-U = %v, want low", idle[cIdx])
	}
	if busy[cIdx] < 85 {
		t.Errorf("busy C-CPU-U = %v, want ~100", busy[cIdx])
	}
	if busy[thrIdx] <= idle[thrIdx] {
		t.Errorf("throttle rate busy %v should exceed idle %v", busy[thrIdx], idle[thrIdx])
	}
}

func TestMemorySignalTracksThrashing(t *testing.T) {
	cat := DefaultCatalog()
	majIdx := hostIndex(cat, "mem.vmstat.pgmajfault")

	read := func(memLimit float64) []float64 {
		c, err := cluster.New(apps.TrainingNode("t1"))
		if err != nil {
			t.Fatal(err)
		}
		app, err := apps.Build(c, "x", workload.Constant{Rate: 30000}, []apps.ServiceSpec{
			{Name: "memcache", Node: "t1", Profile: apps.MemcacheProfile(), Visit: 1, MemLimitGB: memLimit},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := apps.NewEngine(c, app)
		if err != nil {
			t.Fatal(err)
		}
		agent := NewAgent(NewCollector(cat, 5))
		var host []float64
		for i := 0; i < 10; i++ {
			eng.Tick()
			if obs, ok := agent.Observe(eng); ok {
				for _, smp := range obs.Samples {
					host = smp.Values[:cat.NumHost()]
				}
			}
		}
		return host
	}

	unlimited := read(0)
	capped := read(4)
	if capped[majIdx] <= unlimited[majIdx]+1 {
		t.Errorf("major faults capped=%v unlimited=%v: thrashing signal missing", capped[majIdx], unlimited[majIdx])
	}
}

func TestConnectionsTrackConcurrency(t *testing.T) {
	cat := DefaultCatalog()
	connIdx := hostIndex(cat, "network.tcp.currestab")

	read := func(rate float64) float64 {
		eng, _ := newTestRig(t, rate, 1, 0) // 1 core → saturates early
		agent := NewAgent(NewCollector(cat, 6))
		var v float64
		for i := 0; i < 10; i++ {
			eng.Tick()
			if obs, ok := agent.Observe(eng); ok {
				for _, smp := range obs.Samples {
					v = smp.Values[connIdx]
				}
			}
		}
		return v
	}
	// Saturation → RT blows up → Little's law inflates connections.
	if lo, hi := read(50), read(1000); hi < 2*lo {
		t.Errorf("connections lo=%v hi=%v: saturation should inflate established conns", lo, hi)
	}
}

func TestDeterministicCollection(t *testing.T) {
	run := func() []float64 {
		eng, _ := newTestRig(t, 200, 3, 0)
		agent := NewAgent(NewCollector(DefaultCatalog(), 42))
		var last []float64
		for i := 0; i < 6; i++ {
			eng.Tick()
			if obs, ok := agent.Observe(eng); ok {
				for _, smp := range obs.Samples {
					last = smp.Values
				}
			}
		}
		return last
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("collection not deterministic at metric %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcessVectorRateConversion(t *testing.T) {
	defs := []MetricDef{
		{Name: "c", Kind: Counter},
		{Name: "g", Kind: Gauge},
	}
	cur := []float64{110, 7}
	prev := []float64{100, 3}
	out := make([]float64, len(defs))
	processInto(defs, cur, prev, 1, out)
	if out[0] != 10 {
		t.Errorf("counter rate %v, want 10", out[0])
	}
	if out[1] != 7 {
		t.Errorf("gauge %v, want pass-through 7", out[1])
	}
	// Counter reset must clamp to zero, not go negative.
	processInto(defs, []float64{5, 1}, []float64{100, 1}, 1, out)
	if out[0] != 0 {
		t.Errorf("reset counter rate %v, want 0", out[0])
	}
	// Missing prev yields zero rates.
	processInto(defs, cur, nil, 1, out)
	if out[0] != 0 {
		t.Errorf("no-prev counter rate %v, want 0", out[0])
	}
}
