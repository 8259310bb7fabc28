package dataset

import (
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/frame"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
)

// BenchmarkGenerateParallel compares corpus generation over four Table 1
// configurations (three independent groups: two singletons and one
// parallel pair) with the group pool disabled (workers=1) and enabled
// (workers=GOMAXPROCS). Reports are byte-identical either way; only the
// wall clock differs.
func BenchmarkGenerateParallel(b *testing.B) {
	var cfgs []RunConfig
	for _, c := range Table1() {
		switch c.ID {
		case 1, 8, 3, 18:
			cfgs = append(cfgs, c)
		}
	}
	opt := GenOptions{Duration: 200, RampSeconds: 150, Seed: 5}
	run := func(b *testing.B, workers int) {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Generate(cfgs, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pool", func(b *testing.B) { run(b, 0) })
}

// BenchmarkGenerateCorpus measures the dataset assembly hot loop at corpus
// scale: the 21-container multi-tenant deployment ticked one simulated hour
// (3600 ticks) per iteration, each container's rows written straight into
// its own span of one dense corpus — the same tick → ObserveTick →
// frame-row write structure generateGroup runs for every Table 1 group.
func BenchmarkGenerateCorpus(b *testing.B) {
	cat := pcp.DefaultCatalog()
	const ticks, warmup = 3600, 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(apps.EvalNodes()...)
		if err != nil {
			b.Fatal(err)
		}
		tea, err := apps.NewTeaStore(c, apps.TeaStoreLoad(135, 1))
		if err != nil {
			b.Fatal(err)
		}
		shop, err := apps.NewSockshop(c, apps.SockshopLoad(0.27))
		if err != nil {
			b.Fatal(err)
		}
		eng, err := apps.NewEngine(c, tea, shop)
		if err != nil {
			b.Fatal(err)
		}
		type handle struct {
			app *apps.App
			ctr *cluster.Container
		}
		var handles []handle
		for _, a := range []*apps.App{tea, shop} {
			for _, s := range a.Services() {
				for _, inst := range s.Instances() {
					handles = append(handles, handle{app: a, ctr: inst.Ctr})
				}
			}
		}
		n := ticks - warmup
		spans := make([]frame.Span, len(handles))
		for h := range spans {
			spans[h] = frame.Span{ID: h, Start: h * n, End: (h + 1) * n}
		}
		ds := newDataset(cat.CombinedDefs(), len(handles)*n, spans)
		cols := ds.fr.Cols(nil)
		agent := pcp.NewAgent(pcp.NewCollector(cat, 7))
		k := 0
		for t := 0; t < ticks; t++ {
			eng.Tick()
			ts, ok := agent.ObserveTick(eng)
			if !ok || t < warmup {
				continue
			}
			for h, hd := range handles {
				ri := ts.Index(hd.ctr)
				if ri < 0 {
					b.Fatalf("container %s unobserved at t=%d", hd.ctr.ID, t)
				}
				p := spans[h].Start + k
				for j, v := range ts.Vector(ri) {
					cols[j][p] = v
				}
				ds.t[p] = int32(t)
				ds.kpi[p] = hd.app.KPI.Throughput
			}
			k++
		}
		if k != n {
			b.Fatalf("wrote %d rows per container, want %d", k, n)
		}
	}
}
