package cluster

import "testing"

// TestArbitrateAllocations pins the slice-based arbitration hot path at
// zero steady-state allocations: with a warmed scratch, ArbitrateInto
// must not touch the heap.
func TestArbitrateAllocations(t *testing.T) {
	c, err := New(NewNode("n1", 8, 64, 500, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := c.Place("n1", &Container{ID: id, CPULimit: 3}); err != nil {
			t.Fatal(err)
		}
	}
	n := c.nodeByName["n1"]
	ctrs := n.Placed()
	demands := make([]Demand, len(ctrs))
	grants := make([]Grant, len(ctrs))
	for i := range demands {
		demands[i] = Demand{CPU: 2.5, Disk: 200, Net: 400, MemBW: 5}
	}
	var scr ArbScratch
	n.ArbitrateInto(ctrs, demands, grants, &scr) // warm the scratch

	allocs := testing.AllocsPerRun(200, func() {
		n.ArbitrateInto(ctrs, demands, grants, &scr)
	})
	if allocs > 0 {
		t.Errorf("ArbitrateInto allocates %.1f objects/op, want 0", allocs)
	}
}
