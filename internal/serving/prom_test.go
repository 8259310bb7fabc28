package serving

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryRendersDeterministically(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "second family", nil).Add(2)
	reg.Counter("a_total", "first family", Labels{"z": "1", "a": "2"}).Inc()
	reg.Gauge("g", "a gauge", nil).Set(-3.5)

	var one, two strings.Builder
	if err := reg.WriteText(&one); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("render not deterministic")
	}
	out := one.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		`a_total{a="2",z="1"} 1`,
		"b_total 2",
		"# TYPE g gauge",
		"g -3.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Families sort by name: a_total before b_total.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("families not sorted")
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "x", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("lost increments: %v", c.Value())
	}
	c.Add(-5)
	if c.Value() != 8000 {
		t.Fatal("counter accepted negative delta")
	}
}

// TestHistogramBucketsAndQuantile pins the cumulative buckets a scrape
// carries, which is all PromQL's histogram_quantile reads: with 2 of 5
// observations at or below 0.01 and 3 at or below 0.1, p50 falls in
// (0.01, 0.1]; with 4 at or below 1, p99 falls in the overflow bucket.
func TestHistogramBucketsAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.total != 5 {
		t.Fatalf("count = %d", h.total)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogramEmptyQuantile: an empty histogram still renders its
// series, all zero, which histogram_quantile reads as NaN rather than as
// some latency.
func TestHistogramEmptyQuantile(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("e", "empty", nil, nil)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`e_bucket{le="+Inf"} 0`, "e_count 0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	got := labelKey(Labels{"p": "a\"b\\c\nd"})
	want := `{p="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("labelKey = %s, want %s", got, want)
	}
}
