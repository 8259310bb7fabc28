package features

import (
	"math/rand"
	"slices"
	"testing"

	"monitorless/internal/frame"
)

// streamFixture is one pipeline layout plus the frame family it is fitted
// on (runs 4×80, seed 11) and streamed over.
type streamFixture struct {
	cfg   Config
	frame func(runs, rowsPerRun int, seed int64) *frame.Frame
}

func synth(cfg Config) streamFixture { return streamFixture{cfg, synthFrame} }

// historyFixture's label reads past values — trailing means and lags — so
// its filter keeps window columns: on the fitted plan the prefix ring holds
// four of the six base columns, the base ring two others, and the windows
// each read a different subset (TestRingFixtureGeometry pins this).
func historyFixture() streamFixture {
	return streamFixture{
		cfg:   Config{Normalize: true, TimeFeatures: true, Reduce2: ReduceFilter, FilterTopK: 6, Seed: 3},
		frame: historyFrame(true),
	}
}

// trailingFixture's label reads trailing means only, so its plan keeps
// averages but no lag: a prefix ring and no base ring.
func trailingFixture() streamFixture {
	return streamFixture{
		cfg:   Config{TimeFeatures: true, Reduce2: ReduceFilter, FilterTopK: 3},
		frame: historyFrame(false),
	}
}

// historyFrame builds frames whose label depends on an instance's past:
// the 15-sample trailing mean of "load", the 5-sample trailing mean of
// "queue" and, when lagged, queue 5 samples back and load 15 samples back.
// The other columns are log-scaled bytes, noise and a constant.
func historyFrame(lagged bool) func(runs, rowsPerRun int, seed int64) *frame.Frame {
	return func(runs, rowsPerRun int, seed int64) *frame.Frame {
		r := rand.New(rand.NewSource(seed))
		cols := []Column{
			{Name: "load", Domain: "other"},
			{Name: "queue", Domain: "other"},
			{Name: "disk.bytes", Domain: "disk", Log: true},
			{Name: "noise.a", Domain: "other"},
			{Name: "noise.b", Domain: "other"},
			{Name: "constant.metric", Domain: "other"},
		}
		mean := func(hist [][]float64, c, w int) float64 {
			sum := 0.0
			for _, h := range hist[max(len(hist)-w, 0):] {
				sum += h[c]
			}
			return sum / float64(min(len(hist), w))
		}
		rows := make([][][]float64, runs)
		labels := make([][]int, runs)
		for g := range rows {
			load := 50.0
			for i := 0; i < rowsPerRun; i++ {
				load = 0.7*load + 30*r.Float64()
				rows[g] = append(rows[g], []float64{load, 10 * r.Float64(), 1e6 * r.Float64(), r.NormFloat64(), r.Float64(), 7})
				hist := rows[g]
				hot := mean(hist, 0, 15) > 55 || mean(hist, 1, 5) > 7
				if lagged {
					hot = hot || hist[max(i-5, 0)][1] > 9 || hist[max(i-15, 0)][0] > 85
				}
				lbl := 0
				if hot {
					lbl = 1
				}
				labels[g] = append(labels[g], lbl)
			}
		}
		return buildFrame(cols, rows, labels)
	}
}

// pcaFirst reduces by PCA before the time features and products (which
// find no pair among the components); pcaLast reduces by PCA after them.
// Each PCA reads a few dozen columns at most, so its cubic eigensolver
// stays cheap, and PCAMax keeps the component count small.
var (
	pcaFirst = Config{Normalize: true, Reduce1: ReducePCA, TimeFeatures: true, Products: true, PCAMax: 4}
	pcaLast  = Config{Normalize: true, Reduce1: ReduceFilter, TimeFeatures: true, Products: true, Reduce2: ReducePCA, FilterTopK: 4, PCAMax: 6}
)

// streamFixtures enumerates the pipeline layouts the equivalence tests
// cover: the paper's selected layout (whose plan keeps no window column on
// synthFrame), a scaled layout with no reduction (every column live, so
// full-width rings), a layout with no time features (the degenerate
// stream), the two history fixtures whose packed rings are narrower than
// the base row and differ from each other, and the two PCA layouts.
func streamFixtures() map[string]streamFixture {
	return map[string]streamFixture{
		"default": synth(DefaultConfig()),
		"full-rings": synth(Config{
			Normalize:    true,
			TimeFeatures: true,
		}),
		"no-time": synth(Config{
			Normalize:    true,
			Reduce1:      ReduceFilter,
			TimeFeatures: false,
			Products:     true,
			Reduce2:      ReduceNone,
			FilterTopK:   10,
		}),
		"bare":      synth(Config{}),
		"history":   historyFixture(),
		"trailing":  trailingFixture(),
		"pca-first": synth(pcaFirst),
		"pca-last":  synth(pcaLast),
	}
}

func fullIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestRingFixtureGeometry pins what the history fixtures exist for: the
// history plan's rings are packed narrower than the base row and to
// different sets, its windows read different columns, and the trailing
// plan has a prefix ring but no base ring — which EnsureSlots must still
// allocate.
func TestRingFixtureGeometry(t *testing.T) {
	_, str := fitStreamer(t, historyFixture())
	tm := str.plan.tm
	t.Logf("history rings: %d/%d prefix %v, %d/%d base %v; avg %v, lag %v",
		len(tm.prefIdx), str.baseCols, tm.prefIdx, len(tm.ringIdx), str.baseCols, tm.ringIdx, tm.avgIdx, tm.lagIdx)
	if rc, pc := len(tm.ringIdx), len(tm.prefIdx); rc == 0 || rc == pc || rc >= str.baseCols || pc >= str.baseCols {
		t.Fatalf("history plan rings: %d base, %d prefix of %d columns; want 0 < base != prefix < columns", rc, pc, str.baseCols)
	}
	// A kernel that indexed a ring row by column instead of by cell would
	// read the wrong float only if some cell differs from its column.
	if slices.Equal(tm.prefIdx, fullIdx(len(tm.prefIdx))) || slices.Equal(tm.ringIdx, fullIdx(len(tm.ringIdx))) {
		t.Fatalf("history plan rings are identity prefixes: prefix %v, base %v", tm.prefIdx, tm.ringIdx)
	}
	sameSets := func(wins [][]int) bool {
		for _, w := range wins[1:] {
			if !slices.Equal(w, wins[0]) {
				return false
			}
		}
		return true
	}
	if sameSets(tm.avgIdx) || sameSets(tm.lagIdx) {
		t.Fatalf("history plan windows read the same sets: avg %v lag %v", tm.avgIdx, tm.lagIdx)
	}

	_, str = fitStreamer(t, trailingFixture())
	tm = str.plan.tm
	t.Logf("trailing rings: %d/%d prefix %v, %d/%d base", len(tm.prefIdx), str.baseCols, tm.prefIdx, len(tm.ringIdx), str.baseCols)
	if len(tm.ringIdx) != 0 || len(tm.prefIdx) == 0 {
		t.Fatalf("trailing plan rings: %d base, %d prefix; want a prefix ring only", len(tm.ringIdx), len(tm.prefIdx))
	}
	sl := NewStateSlab(str)
	sl.EnsureSlots(1)
	if len(sl.base) != 0 || len(sl.prefix) != sl.slots*sl.prefStride() || sl.prefStride() == 0 {
		t.Fatalf("trailing slab: base %d floats, prefix %d floats at stride %d", len(sl.base), len(sl.prefix), sl.prefStride())
	}
}

// heldShapes names the run layouts heldShape cuts a held-out frame into.
var heldShapes = []string{"equal-runs", "unequal-runs", "no-spans", "clipped-view"}

// heldShape lays a held-out frame out as heldShapes[shape]: as built
// (equal runs); the same rows cut into runs of unequal length, one of
// them a single row; no spans at all, which the pipeline treats as one
// run; or a RowRange view starting inside the first run, so that run's
// windows restart at the clip.
func heldShape(fr *frame.Frame, shape int, rng *rand.Rand) *frame.Frame {
	switch heldShapes[shape] {
	case "unequal-runs":
		return recut(fr, unevenLens(fr.Rows(), max(fr.NumRuns(), 2), rng))
	case "no-spans":
		return recut(fr, nil)
	case "clipped-view":
		lo := 0
		if first := fr.Spans()[0]; first.End-first.Start > 1 {
			lo = first.Start + 1 + rng.Intn(first.End-first.Start-1)
		}
		return fr.RowRange(lo, fr.Rows())
	}
	return fr
}

// recut copies fr into a frame whose runs are consecutive spans of the
// given lengths (no spans when lens is nil).
func recut(fr *frame.Frame, lens []int) *frame.Frame {
	var spans []frame.Span
	start := 0
	for i, n := range lens {
		spans = append(spans, frame.Span{ID: i + 1, Start: start, End: start + n})
		start += n
	}
	out := frame.NewDense(fr.Schema(), fr.Rows(), spans, fr.Labels())
	for j := 0; j < fr.NumCols(); j++ {
		copy(out.Col(j), fr.Col(j))
	}
	return out
}

// unevenLens cuts rows into min(runs, rows) run lengths at random points,
// one of the runs a single row, in shuffled order.
func unevenLens(rows, runs int, rng *rand.Rand) []int {
	runs = min(runs, rows)
	if runs == 1 {
		return []int{rows}
	}
	cuts := []int{0, 1, rows}
	for _, c := range rng.Perm(rows - 2)[:runs-2] {
		cuts = append(cuts, c+2)
	}
	slices.Sort(cuts)
	lens := make([]int, runs)
	for i := range lens {
		lens[i] = cuts[i+1] - cuts[i]
	}
	rng.Shuffle(runs, func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
	return lens
}

// TestStreamerMatchesBatchBitIdentical streams each held-out run alone,
// one sample per step (a batch of one), against the test-only reference,
// over every held-out run layout; building the driver holds
// TransformFrame to the same reference.
func TestStreamerMatchesBatchBitIdentical(t *testing.T) {
	for name, fx := range streamFixtures() {
		t.Run(name, func(t *testing.T) {
			pipe, str := fitStreamer(t, fx)
			rng := rand.New(rand.NewSource(23))
			for shape, shapeName := range heldShapes {
				t.Run(shapeName, func(t *testing.T) {
					held := heldShape(fx.frame(3, 60, 23), shape, rng)
					d := newSlabDriver(t, pipe, str, held, max(held.NumRuns(), 1))
					for ri, rows := range d.held {
						for range rows {
							d.add(int32(ri), ri)
							d.flush()
						}
					}
				})
			}
		})
	}
}

func TestStreamerLongStreamBoundedStateMatchesBatch(t *testing.T) {
	// A stream several times longer than the time window must still agree
	// with the offline pipeline while keeping only O(window) rows of state.
	fx := historyFixture()
	pipe, str := fitStreamer(t, fx)
	d := newSlabDriver(t, pipe, str, fx.frame(1, 400, 47), 1)
	before := d.sl.Bytes()
	for range d.held[0] {
		d.add(0, 0)
		d.flush()
	}
	// The flat rings stay O(window × base cols), independent of the
	// 400-sample stream length: base holds maxLag+1 rows and prefix
	// 1+maxAvg+2 rows, each at most baseCols floats, per slot.
	if d.sl.Bytes() != before {
		t.Fatalf("slab grew while streaming: %d -> %d bytes", before, d.sl.Bytes())
	}
	if perSlot, bound := d.sl.baseStride()+d.sl.prefStride(), 64*str.baseCols; perSlot > bound {
		t.Fatalf("stream state is not bounded: %d floats per slot, want <= %d", perSlot, bound)
	}
}

func TestStreamerRejectsUnfittedAndBadWidth(t *testing.T) {
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Streamer(); err == nil {
		t.Fatal("expected error for unfitted pipeline")
	}
	_, str := fitStreamer(t, synth(DefaultConfig()))
	if err := str.CheckWidth([]float64{1, 2}); err == nil {
		t.Fatal("expected error for wrong raw width")
	}
}

func TestStreamerStatesAreIndependent(t *testing.T) {
	// Two instances alternating through one slab must each get the
	// vectors the offline pipeline computes for their history alone (slots
	// carry all mutability).
	fx := historyFixture()
	pipe, str := fitStreamer(t, fx)
	d := newSlabDriver(t, pipe, str, fx.frame(2, 50, 101), 2)
	for range d.held[0] {
		d.add(0, 0)
		d.flush()
		d.add(1, 1)
		d.flush()
	}
}
