// Command bench is the repository's one benchmark: four workloads over
// the real cmd/serve binary and the offline training plane, a fixed set
// of named metrics, and an outside-in stage ledger whose rows add up to
// the end-to-end figure. README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repository root is the
// driver's view of the same definitions.
//
// Usage (from the repository root):
//
//	go run -C bench . -workload all -seed 1 -out /tmp/bench.json
//	go run -C bench . -workload fleet-full -trace 1
//	go run -C bench . -workload all -aa 5
//
// The driver runs bench/run.sh, which builds this program with its Go
// caches inside the checkout and passes its flags through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	aa       int
	work     string
	serveBin string
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced per-layer replay and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write a JSON report of every run here")
	flag.IntVar(&o.aa, "aa", 0, "run each chosen workload this many times on the same build and check every end-to-end metric's spread against its bound")
	flag.StringVar(&o.work, "work", "", "directory for the serve binary and per-run scratch (default: a temp dir, removed on exit)")
	flag.StringVar(&o.serveBin, "serve", "", "use this cmd/serve binary instead of building one")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans here (default: <work>/spans-<workload>.json when -work is set)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	specs := workloads()
	if o.workload != "all" {
		sp, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []spec{sp}
	}

	e := &env{workDir: o.work, serveBin: o.serveBin}
	if e.workDir == "" {
		dir, err := os.MkdirTemp("", "monitorless-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		e.workDir = dir
	} else if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	needServe := false
	for _, sp := range specs {
		needServe = needServe || sp.kind != kindOffline
	}
	if needServe && e.serveBin == "" {
		bin, err := buildServe(e.workDir)
		if err != nil {
			return err
		}
		e.serveBin = bin
	}

	var results []*result
	failed := false
	for _, sp := range specs {
		e.spansPath = o.spans
		if e.spansPath == "" && o.work != "" {
			e.spansPath = filepath.Join(o.work, "spans-"+sp.name+".json")
		}
		for k := 0; k < max(o.aa, 1); k++ {
			runWorkload := runOnline
			if sp.kind == kindOffline {
				runWorkload = runOffline
			}
			res, err := runWorkload(e, sp, o.seed, o.seconds, o.trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			results = append(results, res)
			printResult(res)
			failed = failed || !res.correct || res.failed > 0
		}
	}
	if o.aa > 1 && !printSpreads(results) {
		failed = true
	}
	if o.out != "" {
		if err := writeReport(o.out, results); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a correctness check, an operation or a spread bound failed (see above)")
	}
	return nil
}

// printResult prints every metric by name with its unit, then the one
// line the driver parses: with -trace 0 the end-to-end metrics, with
// -trace 1 the per-layer metrics.
func printResult(r *result) {
	fmt.Printf("== %s  seed %d  %d s  trace %v\n", r.workload, r.seed, r.seconds, r.traced)
	table := func(defs []metricDef) {
		for _, d := range defs {
			m, ok := r.metrics[d.name]
			if !ok {
				continue
			}
			fmt.Printf("  %-40s %16.6g %-6s n=%d\n", d.name, m.value, d.unit, m.samples)
		}
	}
	table(endToEnd)
	table(perLayer)
	if r.traced {
		printLedger(r)
	}
	for _, p := range r.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	fmt.Printf("  correct %v, %d operations attempted, %d failed\n", r.correct, r.attempted, r.failed)

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		// A per-layer metric that does not exist on this workload reads 0.
		line.Metrics[d.name] = value{r.metrics[d.name].value, d.unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	fmt.Println(string(blob))
}

// printLedger shows the stage rows and the signed remainder summing to
// the end-to-end figure.
func printLedger(r *result) {
	v := func(name string) float64 { return r.metrics[name].value }
	type row struct {
		name string
		val  float64
	}
	var rows []row
	var total float64
	var unit, totalName string
	if _, online := r.metrics["serving.servehttp_ns_per_sample"]; online {
		unit, totalName = "ns/sample", "server_cpu_us_per_sample x1000"
		total = v("server_cpu_us_per_sample") * 1000
		decode := v("serving.wire_decode_ns_per_sample") + v("serving.json_decode_ns_per_sample")
		rows = []row{
			{"serving http self", v("serving.http_self_ns_per_sample")},
			{"serving decode", decode},
			{"serving ingest self", v("serving.ingest_self_ns_per_sample")},
			{"lifecycle drift observe", v("lifecycle.drift_observe_ns_per_sample")},
			{"features step batch", v("features.step_batch_ns_per_sample")},
			{"forest quantize", v("forest.quantize_ns_per_sample")},
			{"forest walk", v("forest.walk_ns_per_sample")},
			{"wire unattributed", v("wire.unattributed_ns_per_sample")},
		}
	} else {
		unit, totalName = "s", "train_total_s"
		total = v("train_total_s")
		rows = []row{
			{"dataset generate", v("dataset.generate_s")},
			{"features pipeline fit", v("features.pipeline_fit_s")},
			{"forest fit", v("forest.fit_s")},
			{"frame fingerprint", v("frame.fingerprint_s")},
			{"core bundle save", v("core.bundle_save_ms") / 1e3},
			{"core bundle load", v("core.bundle_load_ms") / 1e3},
			{"core predict frame", v("core.predict_frame_ns_per_row") * float64(r.metrics["core.predict_frame_ns_per_row"].samples) / 1e9},
			{"offline unattributed", v("offline.unattributed_s")},
		}
	}
	fmt.Printf("  ledger (%s):\n", unit)
	var sum float64
	for _, x := range rows {
		sum += x.val
		fmt.Printf("    %-28s %14.4f  %5.1f%%\n", x.name, x.val, 100*x.val/total)
	}
	fmt.Printf("    %-28s %14.4f  = %s %.4f\n", "sum", sum, totalName, total)
}

// printSpreads is the -aa report: per workload and end-to-end metric, the
// interquartile distance of the repeated runs as a share of their
// median, against the metric's bound. It reports whether all held.
func printSpreads(results []*result) bool {
	by := map[string][]*result{}
	var order []string
	for _, r := range results {
		if _, seen := by[r.workload]; !seen {
			order = append(order, r.workload)
		}
		by[r.workload] = append(by[r.workload], r)
	}
	ok := true
	fmt.Println("== spread of repeated runs (interquartile distance / median) against each bound")
	for _, w := range order {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range by[w] {
				vals = append(vals, r.metrics[d.name].value)
			}
			sp := relSpread(vals)
			verdict := "ok"
			if sp > d.bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-14s %-28s median %14.6g %-5s spread %6.2f%%  bound %5.1f%%  %s\n",
				w, d.name, median(vals), d.unit, 100*sp, 100*d.bound, verdict)
		}
	}
	return ok
}

// machineInfo names the box the numbers came from.
type machineInfo struct {
	CPUModel     string `json:"cpu_model"`
	CoresVisible int    `json:"cores_visible"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
}

func machine() machineInfo {
	mi := machineInfo{
		CoresVisible: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if body, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				mi.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return mi
}

// writeReport writes every run as rows that each carry their sample
// count and operation counts, under one machine block. The benchmark
// defines metrics and claims no gain, hence "claim": null.
func writeReport(path string, results []*result) error {
	type row struct {
		Metric       string  `json:"metric"`
		Value        float64 `json:"value"`
		Unit         string  `json:"unit"`
		Samples      int     `json:"samples"`
		OpsAttempted int     `json:"ops_attempted"`
		OpsFailed    int     `json:"ops_failed"`
	}
	type runReport struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  int      `json:"seconds"`
		Traced   bool     `json:"traced"`
		Correct  bool     `json:"correct"`
		Problems []string `json:"problems,omitempty"`
		Results  []row    `json:"results"`
	}
	rep := struct {
		Machine machineInfo `json:"machine"`
		Claim   *string     `json:"claim"`
		Runs    []runReport `json:"runs"`
	}{Machine: machine()}
	for _, r := range results {
		rr := runReport{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Traced: r.traced, Correct: r.correct, Problems: r.problems}
		names := make([]string, 0, len(r.metrics))
		for name := range r.metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.metrics[name]
			rr.Results = append(rr.Results, row{name, m.value, m.unit, m.samples, r.attempted, r.failed})
		}
		rep.Runs = append(rep.Runs, rr)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
