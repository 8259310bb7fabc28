package pcp

import (
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/workload"
)

// BenchmarkAgentObserve measures one full metric collection + rate
// conversion over the 21-container multi-tenant deployment.
func BenchmarkAgentObserve(b *testing.B) {
	c, err := cluster.New(apps.EvalNodes()...)
	if err != nil {
		b.Fatal(err)
	}
	tea, err := apps.NewTeaStore(c, workload.Constant{Rate: 150})
	if err != nil {
		b.Fatal(err)
	}
	shop, err := apps.NewSockshop(c, workload.Constant{Rate: 80})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := apps.NewEngine(c, tea, shop)
	if err != nil {
		b.Fatal(err)
	}
	agent := NewAgent(NewCollector(DefaultCatalog(), 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
		agent.Observe(eng)
	}
}

// BenchmarkAgentObserveTick measures the same collection through the
// frame-native path, without Observe's wire-form sample list.
func BenchmarkAgentObserveTick(b *testing.B) {
	c, err := cluster.New(apps.EvalNodes()...)
	if err != nil {
		b.Fatal(err)
	}
	tea, err := apps.NewTeaStore(c, workload.Constant{Rate: 150})
	if err != nil {
		b.Fatal(err)
	}
	shop, err := apps.NewSockshop(c, workload.Constant{Rate: 80})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := apps.NewEngine(c, tea, shop)
	if err != nil {
		b.Fatal(err)
	}
	agent := NewAgent(NewCollector(DefaultCatalog(), 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
		agent.ObserveTick(eng)
	}
}
