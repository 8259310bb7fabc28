// Benchmarks regenerating every table and figure of the paper. Each
// benchmark drives the same code path as cmd/experiments at the small
// scale, so `go test -bench=. -benchmem` reproduces the full evaluation
// and reports its cost. BenchmarkPredictionLatency measures the paper's
// headline per-sample classification time (Table 3 reports 40.6 ms for
// the random forest including feature extraction overhead of ~28 ms).
package monitorless_test

import (
	"sync"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/experiments"
)

// benchScale trims the Small preset further so individual benchmark
// iterations stay in the seconds range.
func benchScale() experiments.Scale {
	s := experiments.Small()
	s.TrainDuration = 250
	s.RampSeconds = 200
	s.ElggDuration = 400
	s.TeaStoreDuration = 1000
	s.AutoscaleDuration = 1000
	s.Trees = 30
	return s
}

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error

	benchElggOnce sync.Once
	benchElgg     *experiments.EvalData
	benchElggErr  error

	benchTeaOnce sync.Once
	benchTea     *experiments.EvalData
	benchTeaErr  error
)

func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() { benchCtx, benchCtxErr = experiments.NewContext(benchScale()) })
	if benchCtxErr != nil {
		b.Fatalf("context: %v", benchCtxErr)
	}
	return benchCtx
}

func sharedElgg(b *testing.B) *experiments.EvalData {
	b.Helper()
	ctx := sharedCtx(b)
	benchElggOnce.Do(func() { benchElgg, benchElggErr = experiments.CollectElgg(ctx) })
	if benchElggErr != nil {
		b.Fatalf("elgg: %v", benchElggErr)
	}
	return benchElgg
}

func sharedTeaStore(b *testing.B) *experiments.EvalData {
	b.Helper()
	ctx := sharedCtx(b)
	benchTeaOnce.Do(func() { benchTea, benchTeaErr = experiments.CollectTeaStore(ctx) })
	if benchTeaErr != nil {
		b.Fatalf("teastore: %v", benchTeaErr)
	}
	return benchTea
}

// BenchmarkFigure2_Kneedle regenerates the Figure 2 labeling walk-through:
// ramp experiment, Savitzky-Golay smoothing, Kneedle knee detection.
func BenchmarkFigure2_Kneedle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if fig.KneeX < 500 || fig.KneeX > 1100 {
			b.Fatalf("knee at %.0f, want near ~857", fig.KneeX)
		}
	}
}

// BenchmarkTable1_Datagen regenerates a slice of the Table 1 corpus (two
// runs including a parallel pair) end to end: ramp threshold discovery,
// workload execution, metric synthesis, labeling.
func BenchmarkTable1_Datagen(b *testing.B) {
	var cfgs []dataset.RunConfig
	for _, c := range dataset.Table1() {
		if c.ID == 3 || c.ID == 18 {
			cfgs = append(cfgs, c)
		}
	}
	for i := 0; i < b.N; i++ {
		rep, err := dataset.Generate(cfgs, dataset.GenOptions{Duration: 200, RampSeconds: 150, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Dataset.Frame().Rows() == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkTable2_GridSearch runs the hyper-parameter grid search for the
// random-forest contender over the engineered training set.
func BenchmarkTable2_GridSearch(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(ctx, 1200)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("got %d grid rows", len(rows))
		}
	}
}

// BenchmarkTable3_Algorithms trains all six contenders at their chosen
// hyper-parameters and scores them on the Elgg validation run.
func BenchmarkTable3_Algorithms(b *testing.B) {
	ctx := sharedCtx(b)
	elgg := sharedElgg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(ctx, elgg)
		if err != nil {
			b.Fatal(err)
		}
		best := rows[0]
		for _, r := range rows {
			if r.F1 > best.F1 {
				best = r
			}
		}
		if best.Algorithm != "Random Forest" && best.F1 > 0 {
			b.Logf("note: %s beat Random Forest this round (F1 %.3f)", best.Algorithm, best.F1)
		}
	}
}

// BenchmarkTable4_Importances extracts and ranks the model's feature
// importances (the Table 4 listing).
func BenchmarkTable4_Importances(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(ctx, 30)
		if len(rows) == 0 {
			b.Fatal("no importances")
		}
	}
}

// BenchmarkTable5_ThreeTier scores the baselines and monitorless on the
// Elgg three-tier run.
func BenchmarkTable5_ThreeTier(b *testing.B) {
	ctx := sharedCtx(b)
	elgg := sharedElgg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Table5(ctx, elgg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 5 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkTable6_TeaStore scores the multi-tenant TeaStore run.
func BenchmarkTable6_TeaStore(b *testing.B) {
	ctx := sharedCtx(b)
	tea := sharedTeaStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, _, err := experiments.Table6(ctx, tea)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 5 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkFigure3_Series derives the per-service prediction markers from
// the TeaStore run.
func BenchmarkFigure3_Series(b *testing.B) {
	ctx := sharedCtx(b)
	tea := sharedTeaStore(b)
	_, perInst, err := experiments.Table6(ctx, tea)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := experiments.Figure3(tea, perInst)
		if len(fig.Services) < 8 {
			b.Fatal("missing service rows")
		}
	}
}

// BenchmarkTable7_Autoscaling runs the full autoscaling policy comparison
// (seven policies, each on a fresh environment).
func BenchmarkTable7_Autoscaling(b *testing.B) {
	ctx := sharedCtx(b)
	tea := sharedTeaStore(b)
	table6, _, err := experiments.Table6(ctx, tea)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7(ctx, table6)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("got %d policies", len(rows))
		}
	}
}

// BenchmarkTable8_Sockshop scores the 14-service Sockshop run.
func BenchmarkTable8_Sockshop(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := experiments.CollectSockshop(ctx)
		if err != nil {
			b.Fatal(err)
		}
		table, err := experiments.Table8(ctx, data)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 5 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkPredictionLatency measures the online per-sample inference
// cost — paper Table 3's per-prediction time — as one engine batch of one:
// an incremental feature step plus the forest vote (the paper reports
// ~28 ms extraction + 40.6 ms classification).
func BenchmarkPredictionLatency(b *testing.B) {
	ctx := sharedCtx(b)
	elgg := sharedElgg(b)
	m := ctx.Model
	str, err := m.Streamer()
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(m, str)
	slot, _ := eng.Acquire("elgg/web/0")
	slots := []int32{slot}
	raws := make([][]float64, 1)
	rows := elgg.Raw.RunView(0).MaterializeRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raws[0] = rows[i%len(rows)]
		if err := eng.Step(slots, raws); err != nil {
			b.Fatal(err)
		}
		predictionSink = eng.Predict()[0]
	}
}

// predictionSink keeps the measured call from being optimized away.
var predictionSink float64

// BenchmarkTrainModel measures end-to-end training (pipeline fit + forest)
// on the full Table 1 corpus.
func BenchmarkTrainModel(b *testing.B) {
	ctx := sharedCtx(b)
	cfg := benchScale().TrainConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(ctx.Report.Dataset, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
