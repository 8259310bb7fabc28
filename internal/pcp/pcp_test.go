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
	if len(obs.Vectors) != 1 {
		t.Fatalf("got %d vectors, want 1", len(obs.Vectors))
	}
	agent.prev = nil // what a fresh agent starts from
	eng.Tick()
	if _, ok := agent.Observe(eng); ok {
		t.Error("observation after Reset must be dropped")
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
	for id, vec := range obs.Vectors {
		if len(vec) != cat.NumHost()+len(cat.ContainerDefs) {
			t.Fatalf("vector for %s has %d values, want %d", id, len(vec), cat.NumHost()+len(cat.ContainerDefs))
		}
		for j, v := range vec {
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
				for _, v := range obs.Vectors {
					last = v
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
				for _, v := range obs.Vectors {
					host = v[:cat.NumHost()]
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
				for _, vec := range obs.Vectors {
					v = vec[connIdx]
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
				for _, v := range obs.Vectors {
					last = v
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
