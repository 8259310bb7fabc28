package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkArbitrate measures one node's resource arbitration across 12
// contending containers (the M2 evaluation host's worst case).
func BenchmarkArbitrate(b *testing.B) {
	n := NewNode("bench", 12, 32, 400, 1000)
	c, err := New(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := c.Place("bench", &Container{ID: fmt.Sprintf("app/svc%d/0", i), CPULimit: 2}); err != nil {
			b.Fatal(err)
		}
	}
	ctrs := n.Placed()
	demands := make([]Demand, len(ctrs))
	for i := range demands {
		demands[i] = Demand{CPU: 1.5, Disk: 50, Net: 100, MemBW: 3}
	}
	grants := make([]Grant, len(ctrs))
	var scr ArbScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ArbitrateInto(ctrs, demands, grants, &scr)
	}
}
