// Command train fits the monitorless model on a training corpus (either a
// datagen CSV or a freshly generated Table 1 corpus) and persists it.
// The saved bundle is what cmd/serve loads and cmd/experiments -model
// evaluates.
//
// Usage:
//
//	train -out model.gob [-data training.csv] [-scale small|full] [-rules] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/experiments"
	"monitorless/internal/features"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")

	var (
		data      = flag.String("data", "", "training CSV from datagen (default: generate in-process)")
		out       = flag.String("out", "model.gob", "model output path")
		scaleName = flag.String("scale", "small", "experiment scale: small or full")
		table4    = flag.Bool("table4", true, "print the Table 4 feature importances")
		rules     = flag.Bool("rules", false, "distill the model into operator-readable scaling rules (§5 interpretability)")
		workers   = flag.Int("parallel", 0, "worker pool size for generation and evaluation sweeps (0 = GOMAXPROCS)")
		splitter  = flag.String("splitter", "exact", "forest split search: exact (sorted scans, the parity reference) or hist (histogram-binned, fast retraining)")
		bins      = flag.Int("bins", 256, "max quantile bins per column for -splitter hist (2..256)")
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
	sp, perr := tree.ParseSplitter(*splitter)
	if perr != nil {
		log.Fatal(perr)
	}
	scale.Splitter = sp
	scale.Bins = *bins

	var (
		ctx    *experiments.Context
		corpus *dataset.Dataset // the corpus the model trained on, for -rules
		err    error
	)
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := dataset.ReadCSV(f, pcp.DefaultCatalog())
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		m, err := core.Train(ds, scale.TrainConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained on %d samples (%.1f%% saturated) in %s\n",
			ds.Frame().Rows(), 100*ds.SaturatedFraction(), time.Since(start).Round(time.Millisecond))
		ctx = &experiments.Context{Scale: scale, Model: m}
		corpus = ds
	} else {
		start := time.Now()
		ctx, err = experiments.NewContext(scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %d samples and trained in %s (%d engineered features)\n",
			ctx.Model.TrainSamples, time.Since(start).Round(time.Millisecond), ctx.Model.Pipeline.NumOutputs())
		corpus = ctx.Report.Dataset
	}

	printFitReport(ctx.Model.Pipeline.FitReport())

	if err := core.SaveBundleFile(*out, ctx.Model, scale.Seed); err != nil {
		log.Fatal(err)
	}
	if q := ctx.Model.Forest.Quant(); q != nil {
		fmt.Printf("compiled quantized predictor: %d trees packed over order keys of %d columns\n",
			ctx.Model.Forest.NumTrees(), q.NumSlots())
	}
	fmt.Printf("model bundle (v%d) saved to %s\n", core.BundleVersion, *out)

	if *table4 {
		experiments.PrintTable4(os.Stdout, experiments.Table4(ctx, 30))
	}
	if *rules {
		distilled, fidelity, err := ctx.Model.Distill(corpus.Frame(), 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("distilled scaling rules (depth-3 surrogate, %.1f%% agreement with the forest):\n", 100*fidelity)
		for i, r := range distilled {
			if i >= 8 {
				break
			}
			fmt.Println(" ", r)
		}
	}
}

// printFitReport breaks the feature pipeline's share of the training time
// down by step. Time features and products are fitted on their input
// schema and widen nothing themselves, so their rows carry fit time only;
// the step after them carries the widening (an rf-filter: per run in its
// fit, one pass of the chain in its transform). "in cols" is each step's
// logical input width.
func printFitReport(rows []features.StepReport) {
	fmt.Printf("  %-18s %7s %9s %12s\n", "pipeline step", "in cols", "fit s", "transform s")
	for _, r := range rows {
		fmt.Printf("  %-18s %7d %9.3f %12.3f\n", r.Step, r.InCols, r.FitSeconds, r.TransformSeconds)
	}
	fmt.Println("  (time-features and products: fit only; the step after them carries their widening)")
}
