package features

import (
	"fmt"
	"math"
)

// This file holds every step's arithmetic but PCA's, once: one columnar
// kernel per step, run by the offline fit and transform (offline.go) and
// by online stepping alike. Online, a batch of n ≥ 1 raw samples is
// transposed once into a column-major scratch and each step runs over the
// whole batch column-wise — one dispatch per step per batch, contiguous
// inner loops. Per-instance ring state lives in a struct-of-arrays
// StateSlab (slot × stride into two flat float64 slabs). No sample's
// arithmetic depends on another sample in the batch (each instance's
// rings are disjoint slots, which is why a batch naming one slot twice is
// rejected), so offline and online rows agree bit for bit by
// construction; the goldens and the naive test-only reference pin the
// arithmetic itself.

// StateSlab holds the incremental stream state for many instances of one
// Streamer as dense struct-of-arrays storage: sample counts plus the
// base/prefix rings of every slot packed at a fixed per-slot stride into
// two flat slabs. A ring row holds only the columns the liveness plan's
// ring set names (liveness.go) — a prefix row len(prefIdx) floats, a base
// row len(ringIdx) — so a slot carries no cell that no live window reads.
// Slot lifecycle (which instance owns which slot, free lists) belongs to
// the caller; the slab only stores state.
type StateSlab struct {
	s      *Streamer
	n      []int32   // per-slot absorbed sample count
	base   []float64 // per-slot base ring, slots × baseStride
	prefix []float64 // per-slot prefix ring (incl. zero row), slots × prefStride
	slots  int
}

// NewStateSlab mints an empty slab for the streamer; grow it with
// EnsureSlots.
func NewStateSlab(s *Streamer) *StateSlab {
	return &StateSlab{s: s}
}

// per-slot strides in floats: ring rows times the ring set's width. The
// prefix stride includes each slot's own permanently-zero leading row (the
// implicit P[-1]). Either may be zero on its own — a plan can read
// trailing averages but no lag, or the reverse.
func (sl *StateSlab) baseStride() int {
	tm := sl.s.plan.tm
	if tm == nil {
		return 0
	}
	return sl.s.baseRows() * len(tm.ringIdx)
}

func (sl *StateSlab) prefStride() int {
	tm := sl.s.plan.tm
	if tm == nil {
		return 0
	}
	return (1 + sl.s.prefRows()) * len(tm.prefIdx)
}

// EnsureSlots grows the slab to hold at least k slots, preserving existing
// slot state (strides never change, so old state copies to the front).
// New slots arrive zeroed with n=0, ready for use.
func (sl *StateSlab) EnsureSlots(k int) {
	if k <= sl.slots {
		return
	}
	ns := sl.slots * 2
	if ns < k {
		ns = k
	}
	if ns < 16 {
		ns = 16
	}
	n := make([]int32, ns)
	copy(n, sl.n)
	sl.n = n
	// Each ring grows on its own stride: a zero stride allocates nothing.
	base := make([]float64, ns*sl.baseStride())
	copy(base, sl.base)
	sl.base = base
	prefix := make([]float64, ns*sl.prefStride())
	copy(prefix, sl.prefix)
	sl.prefix = prefix
	sl.slots = ns
}

// ResetSlot recycles a slot for a fresh instance. Only the count resets:
// stale ring data is unreachable at n=0 — the first step's prefix reads
// the slot's zero row (never written; ring rows land past it), trailing
// averages clamp to that same zero row, and lags clamp to base ring row 0,
// which that first step writes before reading.
func (sl *StateSlab) ResetSlot(slot int32) { sl.n[slot] = 0 }

// Samples returns how many samples a slot has absorbed.
func (sl *StateSlab) Samples(slot int32) int { return int(sl.n[slot]) }

// Bytes returns the slab's allocated footprint, for memory accounting.
func (sl *StateSlab) Bytes() int64 {
	return int64(cap(sl.base)+cap(sl.prefix))*8 + int64(cap(sl.n))*4
}

// BatchScratch owns every reusable buffer StepBatchInto needs: a bump
// arena for column storage, the ping-pong column-view slices, the
// per-sample offset tables of the time stage, and the duplicate-slot
// epoch marks. Steady state, a batch step allocates nothing. One scratch
// serves one goroutine at a time; the columns returned by Cols alias it
// and are valid until the next StepBatchInto call.
type BatchScratch struct {
	arena []float64
	aUsed int

	cur, nxt [][]float64
	out      [][]float64
	n        int

	// time-stage per-sample tables
	offs, prevs, pbases, baseOffs, wOffs []int
	js                                   []int
	spans                                []float64

	// duplicate-slot detection
	mark  []uint32
	epoch uint32

	// padCol stands in for liveness-masked columns: every dead slot in a
	// ping-pong view aliases it. Its contents are garbage by design — the
	// plan guarantees no live computation reads a dead column.
	padCol []float64
}

// pad returns the shared placeholder column for a dead slot.
func (b *BatchScratch) pad(n int) []float64 {
	if cap(b.padCol) < n {
		b.padCol = make([]float64, n)
	}
	return b.padCol[:n]
}

// Cols returns the engineered batch column-major: Cols()[j][k] is feature
// j of sample k. Valid until the next StepBatchInto with this scratch.
func (b *BatchScratch) Cols() [][]float64 { return b.out }

// Len returns the number of samples in the last batch.
func (b *BatchScratch) Len() int { return b.n }

// allocCol carves an n-float column out of the arena. On overflow a
// fresh, larger arena replaces it — columns handed out earlier keep
// pointing into the old one, which stays alive until the batch ends — so
// growth is geometric and the steady state allocation-free. The returned
// memory is NOT zeroed.
func (b *BatchScratch) allocCol(n int) []float64 {
	if b.aUsed+n > len(b.arena) {
		b.arena = make([]float64, max(2*len(b.arena), b.aUsed+n, 4096))
		b.aUsed = 0
	}
	c := b.arena[b.aUsed : b.aUsed+n : b.aUsed+n]
	b.aUsed += n
	return c
}

// StepBatchInto engineers one batch of raw samples, sample k belonging to
// slot slots[k], leaving the result column-major in b (see Cols/Row).
// Every row is bit-identical to the row Pipeline.TransformFrame produces
// for that sample over its instance's full history, under any partition
// of the stream into batches: samples never interact (disjoint slots), so
// a slot may appear at most once per batch — a repeat is rejected.
//
// Every error (width, slot range, duplicate slot) is raised before any
// slot state changes; the kernels themselves cannot fail, because
// Pipeline.Streamer checked the chain's widths once.
func (s *Streamer) StepBatchInto(sl *StateSlab, slots []int32, raws [][]float64, b *BatchScratch) error {
	if sl.s != s {
		return fmt.Errorf("features: stream batch: slab minted for a different streamer")
	}
	n := len(slots)
	if len(raws) != n {
		return fmt.Errorf("features: stream batch: %d slots, %d rows", n, len(raws))
	}
	b.n = 0
	b.out = nil
	if n == 0 {
		b.out = b.cur[:0]
		return nil
	}
	for _, raw := range raws {
		if err := s.CheckWidth(raw); err != nil {
			return err
		}
	}
	for _, slot := range slots {
		if slot < 0 || int(slot) >= sl.slots {
			return fmt.Errorf("features: stream batch: slot %d out of range (%d slots)", slot, sl.slots)
		}
	}
	b.aUsed = 0

	// Duplicate-slot scan (epoch marks: no clearing per batch).
	if len(b.mark) < sl.slots {
		mark := make([]uint32, sl.slots)
		copy(mark, b.mark)
		b.mark = mark
	}
	if b.epoch == ^uint32(0) {
		for i := range b.mark {
			b.mark[i] = 0
		}
		b.epoch = 0
	}
	b.epoch++
	for _, slot := range slots {
		if b.mark[slot] == b.epoch {
			return fmt.Errorf("features: stream batch: slot %d appears twice in one batch", slot)
		}
		b.mark[slot] = b.epoch
	}

	// Transpose the raw rows into column-major arena storage: column-outer,
	// so writes stream contiguously and only the row reads stride (the rows
	// stay L2-resident across the w passes). Raw columns the liveness plan
	// proves dead are not transposed at all.
	w := s.pipe.InCols
	rawLive := s.plan.rawLive
	cur := b.cur[:0]
	for j := 0; j < w; j++ {
		if rawLive != nil && !rawLive[j] {
			cur = append(cur, b.pad(n))
			continue
		}
		dst := b.allocCol(n)
		for k, raw := range raws {
			dst[k] = raw[j]
		}
		cur = append(cur, dst)
	}
	b.cur = cur

	for i, step := range s.pre {
		cur = batchApply(step, s.plan.pre[i], cur, n, b)
	}
	cur = s.batchTime(sl, slots, cur, n, b)
	for i, step := range s.post {
		cur = batchApply(step, s.plan.post[i], cur, n, b)
	}
	b.out = cur
	b.n = n
	return nil
}

// batchApply runs one fitted row step's kernel over n samples held
// column-wise; cols must be as wide as the step was fitted on (stepWidth).
// Columns the step passes through unchanged are aliased, not copied; only
// computed columns are written, each into a fresh arena column, and
// outputs the liveness plan proves dead (live[j] == false; nil live = all
// live) are skipped entirely — a shared pad column keeps the view's
// indices aligned.
func batchApply(step Step, live []bool, cols [][]float64, n int, b *BatchScratch) [][]float64 {
	next := b.nxt[:0]
	switch t := step.(type) {
	case *Expand:
		next = append(next, cols...)
		for _, ci := range t.LogIdx {
			if live != nil && !live[ci] {
				continue
			}
			src, dst := cols[ci], b.allocCol(n)
			for k := 0; k < n; k++ {
				dst[k] = math.Log10(1 + math.Max(src[k], 0))
			}
			next[ci] = dst
		}
		for k, i := range t.TargetIdx {
			src := cols[i]
			for _, spec := range levelSpecs(t.TargetCPU[k]) {
				if live != nil && !live[len(next)] {
					next = append(next, b.pad(n))
					continue
				}
				dst := b.allocCol(n)
				for r := 0; r < n; r++ {
					if spec.Test(src[r]) {
						dst[r] = 1
					} else {
						dst[r] = 0
					}
				}
				next = append(next, dst)
			}
		}
	case *StandardScale:
		for j, src := range cols {
			if live != nil && !live[j] {
				next = append(next, b.pad(n))
				continue
			}
			dst := b.allocCol(n)
			if t.Std[j] > 0 {
				m, sd := t.Mean[j], t.Std[j]
				for k := 0; k < n; k++ {
					dst[k] = (src[k] - m) / sd
				}
			} else {
				for k := 0; k < n; k++ {
					dst[k] = 0
				}
			}
			next = append(next, dst)
		}
	case *RFFilter:
		for _, k := range t.Keep {
			next = append(next, cols[k])
		}
	case *DropZeroVariance:
		for _, k := range t.Keep {
			next = append(next, cols[k])
		}
	case *Products:
		next = append(next, cols...)
		for pi, pr := range t.Pairs {
			if live != nil && !live[t.InCols+pi] {
				next = append(next, b.pad(n))
				continue
			}
			a, c := cols[pr[0]], cols[pr[1]]
			dst := b.allocCol(n)
			for k := 0; k < n; k++ {
				dst[k] = a[k] * c[k]
			}
			next = append(next, dst)
		}
	}
	b.cur, b.nxt = next, cols[:0]
	return next
}

// batchTime is the time-feature kernel over the whole batch: per-sample
// ring offsets are tabulated once, then every loop runs column-outer over
// contiguous input columns. Each sample touches only its own slot's rows:
// its prefix sums accumulate in arrival order from the slot's zero row,
// a trailing average divides a prefix-sum difference by the span clamped
// to the run start, and a lag clamps to the run's first row. The batch is
// absorbed here: every slot's count advances before the post steps run.
func (s *Streamer) batchTime(sl *StateSlab, slots []int32, cols [][]float64, n int, b *BatchScratch) [][]float64 {
	if s.tf == nil {
		for _, slot := range slots {
			sl.n[slot]++
		}
		return cols
	}
	nc := s.baseCols
	tm := s.plan.tm
	pc, rc := len(tm.prefIdx), len(tm.ringIdx) // packed ring row widths
	pr := s.prefRows()
	br := s.baseRows()
	bStride, pStride := sl.baseStride(), sl.prefStride()

	b.offs = ensureInts(b.offs, n)
	b.prevs = ensureInts(b.prevs, n)
	b.pbases = ensureInts(b.pbases, n)
	b.baseOffs = ensureInts(b.baseOffs, n)
	b.wOffs = ensureInts(b.wOffs, n)
	b.js = ensureInts(b.js, n)
	if cap(b.spans) < n {
		b.spans = make([]float64, n)
	}
	b.spans = b.spans[:n]

	for k, slot := range slots {
		j := int(sl.n[slot])
		pb := int(slot) * pStride // slot's zero row (the implicit P[-1])
		b.js[k] = j
		b.pbases[k] = pb
		b.offs[k] = pb + (1+j%pr)*pc
		if j > 0 {
			b.prevs[k] = pb + (1+(j-1)%pr)*pc
		} else {
			b.prevs[k] = pb
		}
		b.baseOffs[k] = int(slot)*bStride + (j%br)*rc
	}

	// Prefix accumulation and base-ring write, sample-outer: each sample's
	// ring rows are contiguous (and L1-hot), while the
	// input columns advance one element per sample — streaming read
	// pointers the prefetcher follows. Ring cell p holds the plan's p-th
	// ring-set column.
	prefix, base := sl.prefix, sl.base
	for k := 0; k < n; k++ {
		off, pv := b.offs[k], b.prevs[k]
		dst := prefix[off : off+pc : off+pc]
		prv := prefix[pv : pv+pc : pv+pc]
		for p, c := range tm.prefIdx {
			dst[p] = prv[p] + cols[c][k]
		}
	}
	for k := 0; k < n; k++ {
		off := b.baseOffs[k]
		dst := base[off : off+rc : off+rc]
		for p, c := range tm.ringIdx {
			dst[p] = cols[c][k]
		}
	}

	// Window outputs land in one flat live-cols × n slab per window
	// (consecutive allocCol carves are contiguous), so the per-sample
	// scatter write walks a single base pointer at stride n instead of
	// loading a slice header per column.
	next := b.nxt[:0]
	next = append(next, cols...) // base passthrough: pure alias
	for wi, w := range s.tf.AvgWindows {
		idx := tm.avgIdx[wi]
		lc := len(idx)
		if lc == 0 {
			for c := 0; c < nc; c++ {
				next = append(next, b.pad(n))
			}
			continue
		}
		for k := 0; k < n; k++ {
			j := b.js[k]
			lo := j - w
			if lo < 0 {
				lo = 0
			}
			b.spans[k] = float64(j - lo + 1)
			if lo > 0 {
				b.wOffs[k] = b.pbases[k] + (1+(lo-1)%pr)*pc
			} else {
				b.wOffs[k] = b.pbases[k]
			}
		}
		flat := b.allocCol(lc * n)
		li := 0
		for c := 0; c < nc; c++ {
			if li < lc && idx[li] == c {
				next = append(next, flat[li*n:(li+1)*n:(li+1)*n])
				li++
			} else {
				next = append(next, b.pad(n))
			}
		}
		pos := tm.avgPos[wi]
		for k := 0; k < n; k++ {
			off, wo := b.offs[k], b.wOffs[k]
			po := prefix[off : off+pc : off+pc]
			pw := prefix[wo : wo+pc : wo+pc]
			span := b.spans[k]
			p := k
			for _, q := range pos {
				flat[p] = (po[q] - pw[q]) / span
				p += n
			}
		}
	}
	for wi, w := range s.tf.LagWindows {
		idx := tm.lagIdx[wi]
		lc := len(idx)
		if lc == 0 {
			for c := 0; c < nc; c++ {
				next = append(next, b.pad(n))
			}
			continue
		}
		for k := 0; k < n; k++ {
			src := b.js[k] - w
			if src < 0 {
				src = 0
			}
			b.wOffs[k] = int(slots[k])*bStride + (src%br)*rc
		}
		flat := b.allocCol(lc * n)
		li := 0
		for c := 0; c < nc; c++ {
			if li < lc && idx[li] == c {
				next = append(next, flat[li*n:(li+1)*n:(li+1)*n])
				li++
			} else {
				next = append(next, b.pad(n))
			}
		}
		pos := tm.lagPos[wi]
		for k := 0; k < n; k++ {
			wo := b.wOffs[k]
			src := base[wo : wo+rc : wo+rc]
			p := k
			for _, q := range pos {
				flat[p] = src[q]
				p += n
			}
		}
	}
	for _, slot := range slots {
		sl.n[slot]++
	}
	b.cur, b.nxt = next, cols[:0]
	return next
}

func ensureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
