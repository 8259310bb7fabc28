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

// TestObserveTickAllocations pins the frame-native collection path at
// zero steady-state allocations: with a warm plan and slabs, one tick of
// collection + rate conversion over 21 containers must not touch the
// heap. (The map-keyed Observe adapter allocates by design; it is the
// wire-path boundary.)
func TestObserveTickAllocations(t *testing.T) {
	eng := newAllocRig(t)
	agent := NewAgent(NewCollector(DefaultCatalog(), 1))
	for i := 0; i < 3; i++ {
		eng.Tick()
		agent.ObserveTick(eng)
	}
	allocs := testing.AllocsPerRun(50, func() {
		eng.Tick()
		if _, ok := agent.ObserveTick(eng); !ok {
			t.Fatal("observation unexpectedly dropped")
		}
	})
	if allocs > 0 {
		t.Errorf("Tick+ObserveTick allocates %.1f objects/op steady state, want 0", allocs)
	}
}
