package pcp

import (
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/workload"
)

func newAllocRig(t testing.TB) *apps.Engine {
	c, err := cluster.New(apps.EvalNodes()...)
	if err != nil {
		t.Fatal(err)
	}
	tea, err := apps.NewTeaStore(c, workload.Constant{Rate: 150})
	if err != nil {
		t.Fatal(err)
	}
	shop, err := apps.NewSockshop(c, workload.Constant{Rate: 80})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := apps.NewEngine(c, tea, shop)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestObserveTickAllocations pins both collection doors at zero
// steady-state allocations: with a warm plan and slabs, one tick of
// collection + rate conversion over 21 containers must not touch the
// heap, whether read as the TickSample slab or as Observe's wire form
// (whose samples alias that slab).
func TestObserveTickAllocations(t *testing.T) {
	for name, observe := range map[string]func(*Agent, *apps.Engine) bool{
		"ObserveTick": func(a *Agent, eng *apps.Engine) bool { _, ok := a.ObserveTick(eng); return ok },
		"Observe":     func(a *Agent, eng *apps.Engine) bool { _, ok := a.Observe(eng); return ok },
	} {
		eng := newAllocRig(t)
		agent := NewAgent(NewCollector(DefaultCatalog(), 1))
		for i := 0; i < 3; i++ {
			eng.Tick()
			observe(agent, eng)
		}
		allocs := testing.AllocsPerRun(50, func() {
			eng.Tick()
			if !observe(agent, eng) {
				t.Fatal("observation unexpectedly dropped")
			}
		})
		if allocs > 0 {
			t.Errorf("Tick+%s allocates %.1f objects/op steady state, want 0", name, allocs)
		}
	}
}
