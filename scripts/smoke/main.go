// Command smoke is the verify.sh HTTP serving lane: it trains a compact
// model, builds and launches the real cmd/serve binary on a loopback
// port, streams observations through the HTTP API, asserts predictions
// and non-zero /metrics counters, then SIGTERMs the server and requires
// a clean drain. It exercises the full train → bundle → serve → predict
// path with real processes, not httptest.
//
// Usage: go run ./scripts/smoke
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("smoke: HTTP serving lane green")
}

func run() error {
	tmp, err := os.MkdirTemp("", "monitorless-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// 1. Train a compact bundle (same Table 1 subset the unit tests use).
	bundle := filepath.Join(tmp, "model.gob")
	if err := trainBundle(bundle); err != nil {
		return fmt.Errorf("train: %w", err)
	}

	// 2. Build and launch the real serve binary on a free port.
	bin := filepath.Join(tmp, "serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/serve").CombinedOutput(); err != nil {
		return fmt.Errorf("build cmd/serve: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-model", bundle, "-addr", "127.0.0.1:0", "-drain", "5s")
	// An explicit pipe instead of StdoutPipe: Wait() closes the latter and
	// can drop the final drain lines before the scanner sees them.
	pr, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	pw.Close()
	defer cmd.Process.Kill()
	// One Wait, shared by warm-up and shutdown: a serve binary that dies
	// before printing its banner must fail the lane immediately with its
	// exit status and output, not after the 30s listen timeout.
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()

	base, lines, err := awaitListen(pr, exit)
	if err != nil {
		return err
	}

	// 3. Stream 20 ticks of two instances and check the predictions.
	client := serving.NewClient(base)
	schema, err := client.Schema()
	if err != nil {
		return fmt.Errorf("GET /schema: %w", err)
	}
	width := len(schema.Metrics)
	if width == 0 {
		return fmt.Errorf("schema advertises no metrics")
	}
	const ticks, instances = 20, 2
	for t := 0; t < ticks; t++ {
		obs := pcp.WireObservation{T: t, SchemaHash: schema.SchemaHash}
		for i := 0; i < instances; i++ {
			vec := make([]float64, width)
			for j := range vec {
				vec[j] = float64((i+1)*(j%11)) * 0.09
			}
			obs.Samples = append(obs.Samples, pcp.WireSample{Instance: fmt.Sprintf("tea/auth/%d", i), Values: vec})
		}
		resp, err := client.Ingest(obs)
		if err != nil {
			return fmt.Errorf("POST /ingest tick %d: %w", t, err)
		}
		if len(resp.Predictions) != instances {
			return fmt.Errorf("tick %d: %d predictions, want %d", t, len(resp.Predictions), instances)
		}
		for id, p := range resp.Predictions {
			if p.Samples != t+1 || p.Prob < 0 || p.Prob > 1 {
				return fmt.Errorf("tick %d: bad prediction for %s: %+v", t, id, p)
			}
		}
		if _, ok := resp.Apps["tea"]; !ok {
			return fmt.Errorf("tick %d: app aggregation missing", t)
		}
	}

	// 4. /metrics must report the ingested work.
	metrics, err := client.Metrics()
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	for _, want := range []string{
		fmt.Sprintf("monitorless_ingest_samples_total %d", ticks*instances),
		fmt.Sprintf("monitorless_ingest_observations_total %d", ticks),
		fmt.Sprintf("monitorless_predict_seconds_count %d", ticks*instances),
		`monitorless_http_requests_total{code="200",path="/ingest"}`,
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}

	// 5. Scale-in drops state.
	client.Forget("tea/auth/1")
	stats, err := client.Healthz()
	if err != nil {
		return fmt.Errorf("GET /healthz: %w", err)
	}
	if stats.Instances != instances-1 {
		return fmt.Errorf("healthz instances = %d after forget, want %d", stats.Instances, instances-1)
	}

	// 6. SIGTERM must drain cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-exit:
		if err != nil {
			return fmt.Errorf("serve exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(10 * time.Second):
		return fmt.Errorf("serve did not exit within 10s of SIGTERM")
	}
	rest := <-lines
	if !strings.Contains(rest, "drained cleanly") {
		return fmt.Errorf("no clean-drain confirmation in output:\n%s", rest)
	}
	return nil
}

// trainBundle fits a small model and writes a versioned bundle.
func trainBundle(path string) error {
	all := dataset.Table1()
	var cfgs []dataset.RunConfig
	for _, c := range all {
		switch c.ID {
		case 1, 6, 8, 10, 22, 23:
			cfgs = append(cfgs, c)
		}
	}
	rep, err := dataset.Generate(cfgs, dataset.GenOptions{Duration: 350, RampSeconds: 250, Seed: 3})
	if err != nil {
		return err
	}
	m, err := core.Train(rep.Dataset, core.TrainConfig{
		Pipeline: features.Config{
			Normalize:    true,
			Reduce1:      features.ReduceFilter,
			TimeFeatures: true,
			Products:     true,
			Reduce2:      features.ReduceFilter,
			FilterTopK:   30,
			FilterTrees:  20,
			Seed:         7,
		},
		Forest: forest.Config{
			NumTrees:       20,
			MinSamplesLeaf: 10,
			Criterion:      tree.Entropy,
			Seed:           7,
		},
		Threshold: 0.4,
	})
	if err != nil {
		return err
	}
	return core.SaveBundleFile(path, m, 3)
}

// awaitListen scans serve's stdout for the listen banner and returns the
// base URL plus a channel that later yields the remaining output. A
// process-exit arriving first (via exit) fails immediately with the exit
// status and whatever the server printed, instead of idling out the
// 30-second deadline on a binary that is already dead.
func awaitListen(stdout interface{ Read([]byte) (int, error) }, exit <-chan error) (string, chan string, error) {
	scanner := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	found := make(chan string, 1)
	rest := make(chan string, 1)
	go func() {
		var tail strings.Builder
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr := line[i+len("serving on "):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case found <- addr:
				default:
				}
				continue
			}
			tail.WriteString(line)
			tail.WriteString("\n")
		}
		rest <- tail.String()
	}()
	select {
	case addr := <-found:
		return addr, rest, nil
	case err := <-exit:
		// Scanner sees EOF once the child is gone; collect its output.
		var tail string
		select {
		case tail = <-rest:
		case <-time.After(2 * time.Second):
		}
		return "", nil, fmt.Errorf("serve exited during warm-up (%v) before listening; output:\n%s", err, tail)
	case <-deadline:
		return "", nil, fmt.Errorf("serve did not print its listen address within 30s")
	}
}
