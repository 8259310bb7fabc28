// Command experiments regenerates every table and figure of the paper in
// order: Figure 2, Tables 1–8 and Figure 3.
//
// Usage:
//
//	experiments [-scale small|full] [-run all|fig2|table1|...|table8|fig3|ablation] [-model model.gob] [-series] [-parallel N]
//
// -scale small (default) runs everything in a couple of minutes; -scale
// full approaches the paper's run lengths and forest size. -parallel
// bounds the shared worker pool (0 = GOMAXPROCS); results are identical
// at any setting. -model evaluates a saved bundle instead of generating
// the Table 1 corpus and training in-process: fig2, table4–table8 and
// fig3 run against it (all of them under -run all), while table1–table3
// and ablation need the corpus and are refused when named.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/experiments"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
)

// runNames lists the -run entries in the order they print.
var runNames = []string{"all", "fig2", "table1", "table2", "table3", "table4", "table5", "table6", "fig3", "table7", "ablation", "table8"}

// corpusRuns need the Table 1 corpus, which a saved bundle does not carry.
var corpusRuns = []string{"table1", "table2", "table3", "ablation"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		scaleName = flag.String("scale", "small", "experiment scale: small or full")
		run       = flag.String("run", "all", "comma-separated experiment list (all, fig2, table1..table8, fig3, ablation)")
		series    = flag.Bool("series", false, "emit full data series for the figures")
		workers   = flag.Int("parallel", 0, "worker pool size for the parallel sweeps (0 = GOMAXPROCS)")
		splitter  = flag.String("splitter", "exact", "forest split search: exact (sorted scans, the parity reference) or hist (histogram-binned, fast retraining)")
		bins      = flag.Int("bins", 256, "max quantile bins per column for -splitter hist (2..256)")
		modelPath = flag.String("model", "", "evaluate this saved model bundle instead of training in-process")
	)
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.Small()
	case "full":
		scale = experiments.Full()
	default:
		log.Fatalf("unknown -scale %q (want small or full)", *scaleName)
	}
	sp, err := tree.ParseSplitter(*splitter)
	if err != nil {
		log.Fatal(err)
	}
	scale.Splitter = sp
	scale.Bins = *bins

	want := map[string]bool{}
	for _, part := range strings.Split(*run, ",") {
		name := strings.TrimSpace(part)
		if !slices.Contains(runNames, name) {
			log.Fatalf("unknown -run entry %q (want a comma-separated list of %s)", name, strings.Join(runNames, ", "))
		}
		want[name] = true
	}
	// With -model, "all" means every run a bundle can serve; a corpus run
	// named explicitly is refused.
	sel := func(name string) bool {
		return want[name] || (want["all"] && (*modelPath == "" || !slices.Contains(corpusRuns, name)))
	}
	if *modelPath != "" {
		var refused []string
		for _, name := range corpusRuns {
			if want[name] {
				refused = append(refused, name)
			}
		}
		if len(refused) > 0 {
			log.Fatalf("-model: run(s) %s need the Table 1 corpus, which a saved bundle does not carry; drop -model or select other runs", strings.Join(refused, ", "))
		}
	}

	start := time.Now()

	// Figure 2 needs no trained model.
	if sel("fig2") {
		fig, err := experiments.Figure2(scale)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintFigure2(os.Stdout, fig, *series)
		fmt.Println()
	}

	needCtx := sel("table1") || sel("table2") || sel("table3") || sel("table4") ||
		sel("table5") || sel("table6") || sel("table7") || sel("table8") || sel("fig3") ||
		sel("ablation")
	if !needCtx {
		return
	}

	var ctx *experiments.Context
	if *modelPath != "" {
		b, err := core.LoadBundleFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := b.CheckSchema(pcp.DefaultCatalog().CombinedNames()); err != nil {
			log.Fatal(err)
		}
		ctx = &experiments.Context{Scale: scale, Model: b.Model}
	} else {
		fmt.Fprintf(os.Stderr, "building context (Table 1 corpus + model) at scale %q...\n", scale.Name)
		if ctx, err = experiments.NewContext(scale); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "context ready after %s: %d samples, %.1f%% saturated, %d features\n",
		time.Since(start).Round(time.Millisecond), ctx.Model.TrainSamples,
		100*ctx.Model.TrainSaturatedFrac, ctx.Model.Pipeline.NumOutputs())

	if sel("table1") {
		experiments.PrintTable1(os.Stdout, experiments.Table1Summary(ctx))
		fmt.Println()
	}
	if sel("table2") {
		rows, err := experiments.Table2(ctx, 2500)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintTable2(os.Stdout, rows)
		fmt.Println()
	}

	// The evaluation runs behind Tables 3/5/6/8, Figure 3 and the ablation
	// are independent simulations; collect every one the selection needs
	// concurrently before printing the tables in paper order.
	needElgg := sel("table3") || sel("table5") || sel("ablation")
	needTea := sel("table6") || sel("fig3") || sel("table7") || sel("ablation")
	needSock := sel("table8")
	evals, err := experiments.CollectEvals(ctx, needElgg, needTea, needSock)
	if err != nil {
		log.Fatal(err)
	}

	if sel("table3") {
		rows, err := experiments.Table3(ctx, evals.Elgg)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintTable3(os.Stdout, rows)
		fmt.Println()
	}
	if sel("table4") {
		experiments.PrintTable4(os.Stdout, experiments.Table4(ctx, 30))
		fmt.Println()
	}
	if sel("table5") {
		table, err := experiments.Table5(ctx, evals.Elgg)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintEvalTable(os.Stdout, table)
		fmt.Println()
	}

	var table6 *experiments.EvalTable
	if needTea {
		var perInst map[string][]int
		table6, perInst, err = experiments.Table6(ctx, evals.TeaStore)
		if err != nil {
			log.Fatal(err)
		}
		if sel("table6") {
			experiments.PrintEvalTable(os.Stdout, table6)
			fmt.Println()
		}
		if sel("fig3") {
			fig := experiments.Figure3(evals.TeaStore, perInst)
			experiments.PrintFigure3(os.Stdout, fig, *series)
			fmt.Println()
		}
	}
	if sel("table7") {
		rows, err := experiments.Table7(ctx, table6)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintTable7(os.Stdout, rows)
		fmt.Println()
	}
	if sel("ablation") {
		rows, err := experiments.Ablation(ctx, evals.Elgg, evals.TeaStore)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintAblation(os.Stdout, rows)
		fmt.Println()
	}
	if sel("table8") {
		table, err := experiments.Table8(ctx, evals.Sockshop)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintEvalTable(os.Stdout, table)
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
}
