package features

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"monitorless/internal/frame"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenDump serializes a fitted pipeline's output frame exactly: every
// float is formatted with the shortest round-trippable representation, so
// two dumps are equal iff the frames are bit-identical.
func goldenDump(p *Pipeline, out *frame.Frame) string {
	var b strings.Builder
	b.WriteString("features: " + strings.Join(p.OutputNames(), ",") + "\n")
	var row []float64
	for _, sp := range out.Spans() {
		fmt.Fprintf(&b, "run %d\n", sp.ID)
		for i := sp.Start; i < sp.End; i++ {
			b.WriteString(strconv.Itoa(out.Labels()[i]))
			row = out.Row(i, row)
			for _, v := range row {
				b.WriteByte(' ')
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestPipelineGolden locks the full feature pipeline (normalize → filter →
// time features → products → filter) to a committed fixture for a seeded
// synthetic frame. Any change to the engineered features — a reordered
// map walk, a float reassociation in a parallel path, a changed default —
// shows up as a byte diff. Refresh intentionally with:
//
//	go test ./internal/features/ -run TestPipelineGolden -update
func TestPipelineGolden(t *testing.T) {
	p, err := NewPipeline(DefaultConfigWith(8, 10, 42))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	out, err := p.FitFrame(synthFrame(3, 60, 42))
	if err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	got := goldenDump(p, out)

	path := filepath.Join("testdata", "pipeline_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("pipeline output diverged from %s (run with -update after an intentional change)\ngot %d bytes, want %d bytes\nfirst difference: %s",
			path, len(got), len(want), firstDiff(got, string(want)))
	}

	// The fixture must hold at any pool width, not just the default.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	p2, err := NewPipeline(DefaultConfigWith(8, 10, 42))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := p2.FitFrame(synthFrame(3, 60, 42))
	if err != nil {
		t.Fatal(err)
	}
	if goldenDump(p2, out2) != string(want) {
		t.Error("pipeline output diverges from golden at GOMAXPROCS=8")
	}
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(la), len(lb))
}
