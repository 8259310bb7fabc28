package features

import (
	"math"
	"math/rand"
	"testing"

	"monitorless/internal/frame"
)

// fitStreamer fits the fixture's layout on its training frame.
func fitStreamer(t testing.TB, fx streamFixture) (*Pipeline, *Streamer) {
	t.Helper()
	pipe, err := NewPipeline(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.FitFrame(fx.frame(4, 80, 11)); err != nil {
		t.Fatal(err)
	}
	str, err := pipe.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	return pipe, str
}

// runRows materializes each run of fr as its own row-major slice; a
// frame without spans is one run.
func runRows(fr *frame.Frame) [][][]float64 {
	if fr.NumRuns() == 0 {
		return [][][]float64{fr.MaterializeRows()}
	}
	out := make([][][]float64, fr.NumRuns())
	for k := range out {
		out[k] = fr.RunView(k).MaterializeRows()
	}
	return out
}

// slabDriver steps the runs of a held-out frame — one run is one
// instance's history — through a single StateSlab and compares every
// engineered row, bit for bit, with the test-only reference
// (refTransformFrame) over that run's full history. Building it first
// holds Pipeline.TransformFrame over the whole frame to the same
// reference.
type slabDriver struct {
	t    testing.TB
	str  *Streamer
	held [][][]float64 // raw histories, per run
	want [][][]float64 // refTransformFrame(held), per run
	cols []string      // engineered column names
	sl   *StateSlab
	b    BatchScratch
	pos  []int // per run: rows stepped so far

	slots []int32
	raws  [][]float64
	runs  []int
	row   []float64
}

func newSlabDriver(t testing.TB, pipe *Pipeline, str *Streamer, held *frame.Frame, nSlots int) *slabDriver {
	t.Helper()
	want, err := refTransformFrame(pipe, held)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.TransformFrame(held)
	if err != nil {
		t.Fatal(err)
	}
	framesEqualBits(t, want, got)
	sl := NewStateSlab(str)
	sl.EnsureSlots(nSlots)
	runs := runRows(held)
	return &slabDriver{t: t, str: str, held: runs, want: runRows(want), cols: want.Schema().Names(),
		sl: sl, pos: make([]int, len(runs))}
}

// add queues the next unstepped row of run ri, playing in slot, for the
// pending batch (at most once per run per batch).
func (d *slabDriver) add(slot int32, ri int) {
	d.slots = append(d.slots, slot)
	d.raws = append(d.raws, d.held[ri][d.pos[ri]])
	d.runs = append(d.runs, ri)
}

// flush steps the queued batch and checks every row against the offline
// reference.
func (d *slabDriver) flush() {
	d.t.Helper()
	if len(d.slots) == 0 {
		return
	}
	if err := d.str.StepBatchInto(d.sl, d.slots, d.raws, &d.b); err != nil {
		d.t.Fatal(err)
	}
	if d.b.Len() != len(d.slots) || len(d.b.Cols()) != d.str.pipe.NumOutputs() {
		d.t.Fatalf("batch is %d×%d, want %d×%d", d.b.Len(), len(d.b.Cols()), len(d.slots), d.str.pipe.NumOutputs())
	}
	for k, ri := range d.runs {
		j := d.pos[ri]
		d.pos[ri]++
		want := d.want[ri][j]
		d.row = d.row[:0]
		for _, c := range d.b.Cols() {
			d.row = append(d.row, c[k])
		}
		if len(d.row) != len(want) {
			d.t.Fatalf("run %d row %d: stream width %d, reference %d", ri, j, len(d.row), len(want))
		}
		for c := range want {
			if math.Float64bits(d.row[c]) != math.Float64bits(want[c]) {
				d.t.Fatalf("run %d row %d col %d (%s): stream %v, reference %v",
					ri, j, c, d.cols[c], d.row[c], want[c])
			}
		}
		if got := d.sl.Samples(d.slots[k]); got != d.pos[ri] {
			d.t.Fatalf("run %d: slot absorbed %d samples after %d rows", ri, got, d.pos[ri])
		}
	}
	d.slots, d.raws, d.runs = d.slots[:0], d.raws[:0], d.runs[:0]
}

// driveInterleaved plays 2×nSlots runs of unequal length (averaging
// ticks rows, one run a single row) through nSlots slots in batches of at
// most size. Every tick a seeded shuffle picks which slots report, so
// batches interleave instances in varying order and subsets. Each slot is
// recycled once: its first occupant stops after a random prefix of its
// history, the slot is ResetSlot, and a second run starts in it on rings
// that still hold the first occupant's data.
func driveInterleaved(t *testing.T, fx streamFixture, nSlots, ticks, size int, seed int64) {
	t.Helper()
	pipe, str := fitStreamer(t, fx)
	rng := rand.New(rand.NewSource(seed))
	held := fx.frame(2*nSlots, ticks, 23+seed)
	d := newSlabDriver(t, pipe, str, recut(held, unevenLens(held.Rows(), 2*nSlots, rng)), nSlots)
	occupant := make([]int, nSlots) // slot -> run currently playing
	stopAt := make([]int, nSlots)   // first occupant's prefix length
	for s := range occupant {
		occupant[s] = s
		stopAt[s] = 1 + rng.Intn(len(d.held[s]))
	}
	for left := true; left; {
		left = false
		for _, s := range rng.Perm(nSlots) {
			ri := occupant[s]
			if ri < nSlots && d.pos[ri] >= stopAt[s] {
				d.sl.ResetSlot(int32(s))
				ri += nSlots
				occupant[s] = ri
			}
			if d.pos[ri] >= len(d.held[ri]) {
				continue // history exhausted
			}
			left = true
			if rng.Intn(4) == 0 {
				continue // this instance skips the tick
			}
			d.add(int32(s), ri)
			if len(d.slots) == size {
				d.flush()
			}
		}
		d.flush()
	}
	for s, ri := range occupant {
		if ri < nSlots {
			t.Fatalf("slot %d was never recycled", s)
		}
	}
}

// TestStepBatchMatchesSerialBitIdentical: under every partition of the
// sample stream into batches — the serial one (size 1) included — each
// engineered row equals the offline pipeline's row for that instance.
func TestStepBatchMatchesSerialBitIdentical(t *testing.T) {
	for name, fx := range streamFixtures() {
		t.Run(name, func(t *testing.T) {
			for _, size := range []int{1, 3, 64, 512} {
				nSlots := 7
				if size > nSlots {
					nSlots = size + size/4 // so full-size batches actually form
				}
				driveInterleaved(t, fx, nSlots, 24, size, int64(size))
			}
		})
	}
}

// TestStepBatchDuplicateSlotRejected: a batch naming one slot twice is
// refused before any ring is touched — every slot's sample count and its
// next output are what they would have been without the bad batch.
func TestStepBatchDuplicateSlotRejected(t *testing.T) {
	pipe, str := fitStreamer(t, synth(DefaultConfig()))
	d := newSlabDriver(t, pipe, str, synthFrame(3, 30, 29), 3)
	held := d.held
	for j := 0; j < 20; j++ {
		for ri := range held {
			d.add(int32(ri), ri)
		}
		d.flush()
		if j%5 != 4 {
			continue
		}
		rows := [][]float64{held[0][j+1], held[1][j+1], held[0][j+2]}
		var b BatchScratch
		if err := str.StepBatchInto(d.sl, []int32{0, 1, 0}, rows, &b); err == nil {
			t.Fatal("duplicate slot accepted")
		}
		for ri := range held {
			if got := d.sl.Samples(int32(ri)); got != j+1 {
				t.Fatalf("rejected batch advanced slot %d to %d samples, want %d", ri, got, j+1)
			}
		}
		// The driver's next flush compares every slot's next row with the
		// offline reference, so a ring the rejected batch touched shows up
		// as a bit difference.
	}
}

// TestStateSlabSlotReuse proves ResetSlot fully recycles a slot: a fresh
// instance stepped through a just-freed slot must match the offline
// pipeline over its own history bit-for-bit even though the slot's rings
// still hold the previous instance's data. The history fixture keeps
// cells in both rings, so the first occupant really dirties them.
func TestStateSlabSlotReuse(t *testing.T) {
	fx := historyFixture()
	pipe, str := fitStreamer(t, fx)
	d := newSlabDriver(t, pipe, str, fx.frame(2, 40, 31), 1)
	for range d.held[0] { // first occupant dirties slot 0's rings
		d.add(0, 0)
		d.flush()
	}
	d.sl.ResetSlot(0)
	if d.sl.Samples(0) != 0 {
		t.Fatalf("reset slot has %d samples", d.sl.Samples(0))
	}
	for range d.held[1] {
		d.add(0, 1)
		d.flush()
	}
}

// TestStateSlabBytes: Bytes is the slab's whole allocation — four bytes
// of sample count plus both packed float rings per slot, each ring row
// exactly as wide as the plan's ring set — before and after a growth.
func TestStateSlabBytes(t *testing.T) {
	_, str := fitStreamer(t, historyFixture())
	sl := NewStateSlab(str)
	if sl.baseStride() == 0 || sl.prefStride() == 0 {
		t.Fatal("history pipeline has no time-feature rings")
	}
	if sl.Bytes() != 0 {
		t.Fatalf("empty slab reports %d bytes", sl.Bytes())
	}
	tm := str.plan.tm
	perSlot := int64(4 + 8*(str.baseRows()*len(tm.ringIdx)+(1+str.prefRows())*len(tm.prefIdx)))
	for _, k := range []int{1, 40} {
		sl.EnsureSlots(k)
		want := int64(sl.slots) * perSlot
		if got := sl.Bytes(); got != want {
			t.Fatalf("%d slots: Bytes = %d, want %d", sl.slots, got, want)
		}
	}
}

// TestStepBatchRejectsBadInput: width and slot-range errors must be
// detected before any slot state mutates.
func TestStepBatchRejectsBadInput(t *testing.T) {
	train := synthFrame(4, 80, 11)
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.FitFrame(train); err != nil {
		t.Fatal(err)
	}
	str, err := pipe.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	sl := NewStateSlab(str)
	sl.EnsureSlots(2)
	var b BatchScratch
	good := train.Row(0, nil)
	if err := str.StepBatchInto(sl, []int32{0, 1}, [][]float64{good, {1, 2}}, &b); err == nil {
		t.Fatal("expected width error")
	}
	if sl.Samples(0) != 0 || sl.Samples(1) != 0 {
		t.Fatalf("bad-width batch mutated state: %d/%d samples", sl.Samples(0), sl.Samples(1))
	}
	if err := str.StepBatchInto(sl, []int32{0, int32(sl.slots)}, [][]float64{good, good}, &b); err == nil {
		t.Fatal("expected slot-range error")
	}
	if err := str.StepBatchInto(sl, []int32{0}, [][]float64{good, good}, &b); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if sl.Samples(0) != 0 {
		t.Fatalf("rejected batch mutated state: %d samples", sl.Samples(0))
	}
}

// FuzzStepBatchVsTransformFrame drives random pipeline layouts, held-out
// run layouts (heldShape) and fuzzer-chosen batch schedules — which
// instances report each tick, in what order, and where the tick is cut
// into batches — asserting every StepBatchInto row, and the whole
// TransformFrame output, stay bit-identical to the test-only reference
// over each instance's full history.
func FuzzStepBatchVsTransformFrame(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), int64(1))
	f.Add(uint8(1), uint8(1), uint8(40), int64(2))
	f.Add(uint8(2), uint8(5), uint8(10), int64(3))
	f.Add(uint8(3), uint8(4), uint8(15), int64(4))
	f.Add(uint8(4), uint8(5), uint8(39), int64(5))
	f.Add(uint8(5), uint8(3), uint8(30), int64(6))
	f.Add(uint8(6), uint8(4), uint8(25), int64(7))
	f.Add(uint8(7), uint8(2), uint8(33), int64(8))
	fxs := []streamFixture{
		synth(DefaultConfig()),
		synth(Config{Normalize: true, TimeFeatures: true}),
		synth(Config{Normalize: true, Reduce1: ReduceFilter, Products: true, FilterTopK: 10}),
		synth(Config{TimeFeatures: true}),
		historyFixture(),
		trailingFixture(),
		synth(pcaFirst),
		synth(pcaLast),
	}
	type fitted struct {
		pipe  *Pipeline
		str   *Streamer
		frame func(runs, rowsPerRun int, seed int64) *frame.Frame
	}
	pipes := make([]fitted, len(fxs))
	for i, fx := range fxs {
		pipes[i].pipe, pipes[i].str = fitStreamer(f, fx)
		pipes[i].frame = fx.frame
	}
	f.Fuzz(func(t *testing.T, cfgSel, nInstRaw, ticksRaw uint8, seed int64) {
		p := pipes[int(cfgSel)%len(pipes)]
		nInst := 1 + int(nInstRaw)%6
		ticks := 1 + int(ticksRaw)%40
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		held := heldShape(p.frame(nInst, ticks, seed), int(uint64(seed)%4), rng)
		d := newSlabDriver(t, p.pipe, p.str, held, max(held.NumRuns(), 1))
		for left := true; left; {
			left = false
			for _, i := range rng.Perm(len(d.held)) {
				if d.pos[i] >= len(d.held[i]) {
					continue
				}
				left = true
				if rng.Intn(3) == 0 {
					continue
				}
				d.add(int32(i), i)
				if rng.Intn(3) == 0 {
					d.flush() // cut the tick into several batches
				}
			}
			d.flush()
		}
	})
}

// TestStepBatchAllocations holds the steady-state batch step to zero
// allocations: every streaming step is a columnar kernel, so nothing in
// the chain should allocate once scratch is warm.
func TestStepBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	held := runRows(synthFrame(8, 64, 37))
	pipe, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.FitFrame(synthFrame(4, 80, 11)); err != nil {
		t.Fatal(err)
	}
	str, err := pipe.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	sl := NewStateSlab(str)
	sl.EnsureSlots(8)
	var b BatchScratch
	slots := make([]int32, 8)
	raws := make([][]float64, 8)
	step := func(tick int) {
		for i := range slots {
			slots[i] = int32(i)
			raws[i] = held[i][tick%len(held[i])]
		}
		if err := str.StepBatchInto(sl, slots, raws, &b); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 8; tick++ { // warm scratch + arena
		step(tick)
	}
	tick := 8
	if avg := testing.AllocsPerRun(20, func() { step(tick); tick++ }); avg > 0 {
		t.Fatalf("steady-state StepBatchInto allocates %.1f per batch, want 0", avg)
	}
}
