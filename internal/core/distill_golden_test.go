package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateDistill = flag.Bool("update-distill", false, "rewrite the distillation fixture")

// TestDistillGolden pins the §5 interpretability surrogate of sharedModel at
// depths 2, 3 and 6: every rule (rendered, plus its exact leaf probability)
// and the bit pattern of its fidelity to the forest. Refresh intentionally
// with:
//
//	go test ./internal/core/ -run TestDistillGolden -update-distill
func TestDistillGolden(t *testing.T) {
	m, ds := sharedModel(t)
	raw := ds.Frame()
	var b strings.Builder
	for _, depth := range []int{2, 3, 6} {
		rules, fidelity, err := m.Distill(raw, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		fmt.Fprintf(&b, "depth %d fidelity %#016x\n", depth, math.Float64bits(fidelity))
		for _, r := range rules {
			fmt.Fprintf(&b, "%s p=%s\n", r, strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "distill_golden.txt")
	if *updateDistill {
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
		t.Fatalf("read fixture (run with -update-distill to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("distillation diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
