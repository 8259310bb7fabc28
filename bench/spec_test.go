package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkJSON renders spec.go as the driver's BENCHMARK.json.
func benchmarkJSON(t *testing.T) []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BENCHMARK.json at the repository root is the driver's copy of what
// spec.go defines; the two must not drift apart. After changing spec.go:
//
//	go test -run TestBenchmarkJSONAgreesWithSpec -update
func TestBenchmarkJSONAgreesWithSpec(t *testing.T) {
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json does not match spec.go; rerun with -update.\n--- file ---\n%s\n--- spec ---\n%s", got, want)
	}
}

// The driver refuses a BENCHMARK.json outside these limits before a
// single run, so spec.go is held to them here.
func TestSpecMeetsTheDriversLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(ws))
	}
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range ws {
		unique(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.name, len(w.why))
		}
		if w.conns > 2 {
			t.Errorf("workload %s drives %d connections; never more than the box's two cores", w.name, w.conns)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			unique(d.name)
			if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.name, d.unit, d.better)
			}
			largest = max(largest, d.bound)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	setup := endToEnd[len(endToEnd)-1]
	if setup.name != "setup_s" || setup.unit != "s" || setup.better != "lower" || setup.bound != largest {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound (%v): %+v", largest, setup)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}
