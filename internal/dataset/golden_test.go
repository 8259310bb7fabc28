package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/parallel"
)

var updateGolden = flag.Bool("update", false, "rewrite the generation golden fixture")

// frameDigest reduces a generated frame to a canonical byte digest: the
// schema hash, the dimensions, every column's exact float64 bit patterns
// in schema order, the run spans and the labels. Two frames share a digest
// iff they are byte-for-byte identical.
func frameDigest(fr *frame.Frame) string {
	h := sha256.New()
	io.WriteString(h, fr.Schema().Hash())
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(fr.Rows()))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(fr.NumCols()))
	h.Write(b[:])
	for j := 0; j < fr.NumCols(); j++ {
		for _, v := range fr.Col(j) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, s := range fr.Spans() {
		binary.LittleEndian.PutUint64(b[:], uint64(s.ID))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(s.Start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(s.End))
		h.Write(b[:])
	}
	for _, l := range fr.Labels() {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGoldenFrameBytes pins the generated Table 1/2 corpus to a
// committed fixture: the frame produced by Generate must stay byte-for-byte
// identical across refactors of the simulator hot path, and identical at
// any -parallel worker count, through both doors: Generate followed by
// Dataset.Frame, and GenerateFrame. The fixture was recorded before the
// slot-registry/arena refactor, so a pass proves the refactor preserved
// every emitted bit.
func TestGenerateGoldenFrameBytes(t *testing.T) {
	cfgs := Table1()
	opt := GenOptions{Duration: 200, RampSeconds: 150, Seed: 42}
	digests := make(map[int]string)
	var schemaHash string
	var rows int
	for _, workers := range []int{1, 4, 8} {
		parallel.SetDefaultWorkers(workers)
		rep, err := Generate(cfgs, opt)
		if err != nil {
			parallel.SetDefaultWorkers(0)
			t.Fatalf("generate (workers=%d): %v", workers, err)
		}
		fr := rep.Dataset.Frame()
		door, _, err := GenerateFrame(cfgs, opt)
		if err != nil {
			parallel.SetDefaultWorkers(0)
			t.Fatalf("generate frame (workers=%d): %v", workers, err)
		}
		if got, want := frameDigest(door), frameDigest(fr); got != want {
			parallel.SetDefaultWorkers(0)
			t.Fatalf("GenerateFrame and Generate+Frame disagree (workers=%d)", workers)
		}
		parallel.SetDefaultWorkers(0)
		digests[workers] = frameDigest(fr)
		schemaHash = fr.Schema().Hash()
		rows = fr.Rows()
	}
	if digests[1] != digests[4] || digests[1] != digests[8] {
		t.Fatalf("frame digest varies with worker count: %v", digests)
	}

	got := fmt.Sprintf("schema %s\nrows %d\nframe %s\n", schemaHash, rows, digests[1])
	path := filepath.Join("testdata", "generate_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture updated: %s", strings.TrimSpace(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to record): %v", err)
	}
	if string(want) != got {
		t.Errorf("generated frame diverged from the pre-refactor fixture:\n got: %s\nwant: %s",
			strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
