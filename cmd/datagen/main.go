// Command datagen executes the paper's Table 1 training configurations on
// the simulator and writes the labeled corpus as CSV.
//
// Usage:
//
//	datagen -out training.csv [-duration 900] [-ramp 500] [-runs 1,2,8] [-seed 42] [-catalog default|full] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"monitorless/internal/dataset"
	"monitorless/internal/experiments"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		out      = flag.String("out", "training.csv", "output CSV path ('-' for stdout)")
		catalog  = flag.String("catalog", "default", "metric catalog: default (~290 metrics) or full (the paper's 952 host + 88 container)")
		duration = flag.Int("duration", 900, "measured seconds per run")
		ramp     = flag.Int("ramp", 500, "threshold-discovery ramp seconds")
		runs     = flag.String("runs", "", "comma-separated Table 1 run IDs (default: all 25)")
		seed     = flag.Int64("seed", 42, "random seed")
		summary  = flag.Bool("summary", true, "print the per-run summary to stderr")
		workers  = flag.Int("parallel", 0, "worker pool size for concurrent run groups (0 = GOMAXPROCS)")
	)
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	cfgs := dataset.Table1()
	if *runs != "" {
		want := map[int]bool{}
		for _, part := range strings.Split(*runs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad -runs entry %q: %v", part, err)
			}
			want[id] = true
		}
		var filtered []dataset.RunConfig
		for _, c := range cfgs {
			if want[c.ID] {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			log.Fatalf("-runs %q matched no Table 1 rows", *runs)
		}
		cfgs = filtered
	}

	opts := dataset.GenOptions{
		Duration:    *duration,
		RampSeconds: *ramp,
		Seed:        *seed,
	}
	switch *catalog {
	case "default":
	case "full":
		opts.Catalog = pcp.FullCatalog()
	default:
		log.Fatalf("unknown -catalog %q (want default or full)", *catalog)
	}
	rep, err := dataset.Generate(cfgs, opts)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := rep.Dataset.WriteCSV(w); err != nil {
		log.Fatal(err)
	}

	if *summary {
		fmt.Fprintf(os.Stderr, "%d samples over %d runs, %.1f%% saturated\n",
			rep.Dataset.Frame().Rows(), len(rep.Dataset.RunIDs()), 100*rep.Dataset.SaturatedFraction())
		ctx := &experiments.Context{Report: rep}
		experiments.PrintTable1(os.Stderr, experiments.Table1Summary(ctx))
	}
}
