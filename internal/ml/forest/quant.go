// Quantized batch inference: a fitted forest is lowered ("compiled")
// into a form whose node thresholds are uint8 bin codes under the
// per-feature edges the histogram trainer binned with. Batch traversal
// then compares one-byte codes over a row slab 8× smaller than the
// float frame, in cache-sized row blocks that are quantized once and
// walked by every tree while resident — the inference-side half of the
// LightGBM-style binning the training path already does.
//
// Bit-identity, not approximation: a forest compiles only when every
// node's float threshold is exactly some edges[c] of its feature, and
// frame.Quantize guarantees code(v) ≤ c ⟺ v ≤ edges[c] for every float64
// v (±Inf and NaN included). Histogram-trained trees record thresholds as
// exact edge values, so they compile; exact-splitter trees (midpoint
// thresholds) do not, and keep the float walk. There is no partial form:
// a compiled forest is packed end to end. Accumulation order per row is
// tree order, the same as the float walk, so the compiled path returns
// bit-identical probabilities at any worker count.
//
// Two micro-architectural choices make the compiled walk fast rather
// than merely smaller:
//
//   - The block's code slab is column-major with a fixed 256-byte column
//     stride (codes[slot*256+row]), so block quantization writes each
//     column's codes contiguously, and it replaces the per-value binary
//     search with a per-column uniform grid that maps a value to a
//     starting code in O(1) plus a short scan — the search's 8 dependent
//     loads become ~2.
//   - Trees walk a packed form: one uint32 per node carrying (code
//     threshold, feature slot pre-scaled by the column stride, left
//     child), so a traversal step is two loads and three ALU ops with no
//     data-dependent branch (the child is selected by adding the
//     comparison's sign bit — right = left + 1 by a breadth-first
//     renumbering). Four rows are interleaved per tree so their
//     independent pointer chases overlap instead of serializing on load
//     latency, and four is chosen so the whole walk state stays in
//     registers.
package forest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"monitorless/internal/frame"
	"monitorless/internal/parallel"
)

// quantBlockRows is the row-block tile size: one block's code slab
// (256 × nSlots bytes) stays L1/L2-resident while every tree walks it.
const quantBlockRows = 256

// Packed-node field layout (quantTree.packed): bits 0-7 code threshold,
// 8-16 feature slot, 17-31 left child; nodes are renumbered breadth-
// first at pack time so a node's right child is always left+1 and a
// single 15-bit field addresses both. Because the code slab is
// column-major with a 256-byte stride, `w & 0x1ff00` IS the slot's byte
// offset into the slab (slot × 256) — the walk extracts it with one
// AND, no shift. A threshold byte of 0xff marks a leaf: real thresholds
// are edge indices, which are < len(edges) ≤ 255 and therefore ≤ 254,
// so 0xff is unreachable for internal nodes — and 0xff ≥ every code, so
// a leaf's compare always "goes left" into its own index (self-loop)
// and rows that finish early spin harmlessly until the whole interleave
// group is done.
const (
	packedSlotMask = 0x1ff00
	packedShiftKid = 17
	packedLeafThr  = 0xff
	packedMaxSlots = 1 << 9  // the slot field is 9-bit
	packedMaxNodes = 1 << 15 // the child field is 15-bit
)

// QuantForest is the compiled quantized form of a fitted Forest. It is
// immutable after Compile (safe for concurrent prediction) except for
// the parallelism knob and the internal scratch pool.
type QuantForest struct {
	nFeatures int
	// edges[j] is the ascending bin-edge set of source column j; nil or
	// empty for columns no node tests (single-distinct-value columns,
	// columns the forest never splits on).
	edges [][]float64
	// slotCols maps code-slab slot -> source column: only columns some
	// node actually tests get quantized per block.
	slotCols []int32
	// grids[slot] accelerates Quantize for that slot's column (zero value
	// = plain binary search).
	grids []colGrid
	trees []quantTree
	// par bounds block-level parallelism (0 = the pool default width).
	par  int
	pool sync.Pool // *quantScratch
}

// quantTree is one compiled tree: qthr holds each source node's code
// threshold in the source tree's numbering (0 for leaves; the v4 wire
// form), packed/prob the walk form in its own breadth-first numbering.
type quantTree struct {
	qthr   []uint8
	packed []uint32
	prob   []float64
}

// colGrid is the per-column quantization accelerator: a uniform grid
// over [edges[0], edges[last]] where start[i] counts the edges strictly
// below cell i's value range. Quantizing a finite in-range value is then
// one multiply to find its cell plus a scan over the (few) edges sharing
// it; out-of-range, ±Inf and NaN values fall back to the exact binary
// search, so the result is Quantize's, always.
type colGrid struct {
	lo, scale float64
	gmax      float64 // float64(len(start)), the fast-path bound
	start     []uint8
}

// gridCells is the accelerator resolution multiplier: cells per edge.
// At 16 cells per edge the expected scan past start[] is a sixteenth of
// a step per value — the compare-and-bump loop almost never iterates —
// and a 256-edge column's start table is still only ~4 KiB (uint8
// entries), under the tile's cache budget since quantization touches
// one column's table at a time.
const gridCells = 16

func buildGrid(edges []float64) colGrid {
	// Tiny edge sets search in ≤4 probes anyway; a grid only pays for
	// itself on wide (≈256-bin) columns.
	if len(edges) < 16 {
		return colGrid{}
	}
	lo, hi := edges[0], edges[len(edges)-1]
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(hi > lo) {
		return colGrid{}
	}
	g := gridCells * len(edges)
	scale := float64(g) / (hi - lo)
	if math.IsInf(scale, 0) {
		return colGrid{}
	}
	cellOf := func(v float64) int {
		t := (v - lo) * scale
		if !(t >= 0) {
			return -1
		}
		if t >= float64(g) {
			return g
		}
		return int(t)
	}
	// start[i] = #edges whose cell (under the same float formula the
	// lookup uses) is < i. Any value v landing in cell i then satisfies
	// start[i] ≤ code(v): an edge counted here has a smaller cell than v,
	// and the cell map is monotone, so that edge is < v.
	start := make([]uint8, g)
	idx := 0
	for i := range start {
		for idx < len(edges) && cellOf(edges[idx]) < i {
			idx++
		}
		start[i] = uint8(idx)
	}
	return colGrid{lo: lo, scale: scale, gmax: float64(g), start: start}
}

// quantizeCol codes src into dst[i] (one column of the column-major
// slab — contiguous byte stores), matching frame.Quantize bit for bit —
// the grid only shortcuts where the value is finite and inside the edge
// range. The grid path is unrolled four rows deep: the sub→mul→truncate
// chain that turns a value into its grid cell is ~12 cycles of latency,
// so four independent chains in flight bound the loop by throughput
// instead.
func quantizeCol(e []float64, g *colGrid, src []float64, dst []uint8) {
	if g.start == nil {
		for i, v := range src {
			dst[i] = frame.Quantize(e, v)
		}
		return
	}
	lo, scale, gmax, start := g.lo, g.scale, g.gmax, g.start
	n := len(e)
	i := 0
	for ; i+4 <= len(src); i += 4 {
		v0, v1, v2, v3 := src[i], src[i+1], src[i+2], src[i+3]
		t0 := (v0 - lo) * scale
		t1 := (v1 - lo) * scale
		t2 := (v2 - lo) * scale
		t3 := (v3 - lo) * scale
		var c0, c1, c2, c3 int
		if t0 >= 0 && t0 < gmax {
			c0 = int(start[int(t0)])
			for c0 < n && e[c0] < v0 {
				c0++
			}
		} else {
			c0 = int(frame.Quantize(e, v0))
		}
		if t1 >= 0 && t1 < gmax {
			c1 = int(start[int(t1)])
			for c1 < n && e[c1] < v1 {
				c1++
			}
		} else {
			c1 = int(frame.Quantize(e, v1))
		}
		if t2 >= 0 && t2 < gmax {
			c2 = int(start[int(t2)])
			for c2 < n && e[c2] < v2 {
				c2++
			}
		} else {
			c2 = int(frame.Quantize(e, v2))
		}
		if t3 >= 0 && t3 < gmax {
			c3 = int(start[int(t3)])
			for c3 < n && e[c3] < v3 {
				c3++
			}
		} else {
			c3 = int(frame.Quantize(e, v3))
		}
		dst[i+0] = uint8(c0)
		dst[i+1] = uint8(c1)
		dst[i+2] = uint8(c2)
		dst[i+3] = uint8(c3)
	}
	for ; i < len(src); i++ {
		v := src[i]
		var c int
		if t := (v - lo) * scale; t >= 0 && t < gmax {
			c = int(start[int(t)])
			for c < n && e[c] < v {
				c++
			}
		} else {
			c = int(frame.Quantize(e, v))
		}
		dst[i] = uint8(c)
	}
}

type quantScratch struct {
	codes []uint8
	gath  []float64
}

// Compile lowers a fitted forest into its packed quantized form against
// the given per-source-column bin edges (edges[j] ascending, nil/empty for
// columns without a useful binning). It does not modify f. It returns the
// whole forest packed or an error — never a partial form: every edge set
// must be a valid code map (at most frame.MaxBins-1 edges, no NaN, none
// below its predecessor), every node's threshold must be an edge of the
// column it tests, and the forest must fit the packed word (at most 512
// tested columns, 32 768 nodes per tree). A histogram-trained forest
// compiled against its own training edges meets all three at the
// repository's shapes; an exact-splitter forest fails the second.
func Compile(f *Forest, edges [][]float64) (*QuantForest, error) {
	if f == nil || !f.fitted {
		return nil, fmt.Errorf("forest: compile: forest is not fitted")
	}
	if len(edges) != f.nFeatures {
		return nil, fmt.Errorf("forest: compile: %d edge sets for %d features", len(edges), f.nFeatures)
	}
	for j, e := range edges {
		if len(e) > frame.MaxBins-1 {
			return nil, fmt.Errorf("forest: compile: column %d has %d edges, at most %d allowed", j, len(e), frame.MaxBins-1)
		}
		for i, v := range e {
			if math.IsNaN(v) || (i > 0 && v < e[i-1]) {
				return nil, fmt.Errorf("forest: compile: column %d edge %d (%v) is NaN or below its predecessor", j, i, v)
			}
		}
	}
	// Pass 1: every node must compare against an edge; the columns tested
	// get a slot in the per-block code slab, in column order.
	q := &QuantForest{
		nFeatures: f.nFeatures,
		edges:     edges,
		par:       f.cfg.Parallelism,
		trees:     make([]quantTree, len(f.trees)),
	}
	used := make([]bool, f.nFeatures)
	for ti, t := range f.trees {
		feat, _, _, thr, _ := t.Slabs()
		if len(feat) == 0 || len(feat) > packedMaxNodes {
			return nil, fmt.Errorf("forest: compile: tree %d has %d nodes, the packed form holds 1 to %d", ti, len(feat), packedMaxNodes)
		}
		qthr := make([]uint8, len(feat))
		for i, fc := range feat {
			if fc < 0 {
				continue
			}
			c, ok := edgeIndex(edges[fc], thr[i])
			if !ok {
				return nil, fmt.Errorf("forest: compile: tree %d node %d: threshold %v is not a bin edge of column %d", ti, i, thr[i], fc)
			}
			qthr[i] = uint8(c)
			used[fc] = true
		}
		q.trees[ti].qthr = qthr
	}
	slotOf := make([]int32, f.nFeatures) // source column -> slot, tested columns only
	for j, u := range used {
		if u {
			slotOf[j] = int32(len(q.slotCols))
			q.slotCols = append(q.slotCols, int32(j))
		}
	}
	if len(q.slotCols) > packedMaxSlots {
		return nil, fmt.Errorf("forest: compile: %d tested columns, the packed form holds %d", len(q.slotCols), packedMaxSlots)
	}
	q.grids = make([]colGrid, len(q.slotCols))
	for si, col := range q.slotCols {
		q.grids[si] = buildGrid(edges[col])
	}
	// Pass 2: pack each tree.
	for ti, t := range f.trees {
		feat, left, right, _, prob := t.Slabs()
		q.trees[ti].pack(feat, left, right, prob, slotOf)
	}
	return q, nil
}

// pack builds the branchless walk form: one uint32 per node in a
// breadth-first renumbering that makes every right child its left
// sibling + 1, plus the leaf probabilities in the same numbering. Leaves
// carry the reserved threshold 0xff, slot 0, and self-loop through their
// child field. slotOf maps a source column to its code-slab slot.
func (qt *quantTree) pack(feat, left, right []int32, prob []float64, slotOf []int32) {
	n := len(feat)
	// Breadth-first order. Children are appended as a pair, so the right
	// child's new index is always the left's + 1.
	order := make([]int32, 1, n)
	newIdx := make([]int32, n)
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		newIdx[old] = int32(qi)
		if feat[old] >= 0 {
			order = append(order, left[old], right[old])
		}
	}
	qt.packed = make([]uint32, len(order))
	qt.prob = make([]float64, len(order))
	for ni, old := range order {
		qt.prob[ni] = prob[old]
		if feat[old] < 0 {
			qt.packed[ni] = packedLeafThr | uint32(ni)<<packedShiftKid
			continue
		}
		qt.packed[ni] = uint32(qt.qthr[old]) |
			uint32(slotOf[feat[old]])*quantBlockRows |
			uint32(newIdx[left[old]])<<packedShiftKid
	}
}

// edgeIndex reports whether thr is exactly one of the ascending edges,
// and at which index. Exact float equality is required: the quantized
// compare "code ≤ c" is bit-identical to "v ≤ thr" only when thr is
// edges[c] itself.
func edgeIndex(edges []float64, thr float64) (int, bool) {
	c := sort.SearchFloat64s(edges, thr)
	if c < len(edges) && edges[c] == thr {
		return c, true
	}
	return 0, false
}

// NumSlots returns how many source columns the per-block quantization
// touches (the code slab is NumSlots × blockRows bytes).
func (q *QuantForest) NumSlots() int { return len(q.slotCols) }

// FullyQuantized reports whether every node compares codes. Compile
// returns nothing else, so it is always true; it stays for callers that
// assert the compiled form.
func (q *QuantForest) FullyQuantized() bool { return true }

// SetParallelism bounds block-level fan-out (0 = pool default, 1 =
// serial). Prediction output is bit-identical at any setting.
func (q *QuantForest) SetParallelism(n int) { q.par = n }

func (q *QuantForest) getScratch() *quantScratch {
	s, _ := q.pool.Get().(*quantScratch)
	need := len(q.slotCols) * quantBlockRows
	if s == nil || cap(s.codes) < need {
		s = &quantScratch{codes: make([]uint8, need), gath: make([]float64, quantBlockRows)}
	}
	return s
}

// accumCols adds the tree sums of len(out) rows of the column-major batch
// cols into out (caller-zeroed): out[p] takes row rows[p], or row p when
// rows is nil. It tiles the rows into quantBlockRows blocks and fans the
// blocks out; each block writes a disjoint out sub-slice and accumulates
// trees in index order within it, so the result is bit-identical at any
// worker count. Single-block batches and explicit parallelism 1 run
// inline with zero closure allocation.
func (q *QuantForest) accumCols(cols [][]float64, rows []int, out []float64) {
	n := len(out)
	nBlocks := (n + quantBlockRows - 1) / quantBlockRows
	workers := q.par
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers == 1 || nBlocks == 1 {
		for b := 0; b < nBlocks; b++ {
			q.runBlock(cols, rows, b, out)
		}
		return
	}
	// fn never returns an error and the context never cancels, so the
	// pool error is structurally nil.
	_ = parallel.Do(context.Background(), workers, nBlocks, func(b int) error {
		q.runBlock(cols, rows, b, out)
		return nil
	})
}

// runBlock quantizes block b of the batch into a pooled column-major
// code slab — codes[slot*quantBlockRows+r], each column's codes
// contiguous with a fixed 256-byte stride — then walks every tree over
// the resident block. The stride is fixed (not the block length) so the
// packed walk can fold slot×stride into the node word at compile time;
// short tail blocks just leave the slab's upper rows stale and unread.
func (q *QuantForest) runBlock(cols [][]float64, rows []int, b int, out []float64) {
	lo := b * quantBlockRows
	hi := min(lo+quantBlockRows, len(out))
	s := q.getScratch()
	codes := s.codes[:len(q.slotCols)*quantBlockRows]
	for si, col := range q.slotCols {
		src := cols[col]
		if rows == nil {
			src = src[lo:hi]
		} else {
			g := s.gath[:hi-lo]
			for i, ri := range rows[lo:hi] {
				g[i] = src[ri]
			}
			src = g
		}
		quantizeCol(q.edges[col], &q.grids[si], src, codes[si*quantBlockRows:])
	}
	q.walkBlock(codes, out[lo:hi])
	q.pool.Put(s)
}

// walkBlock walks every tree over one resident block of codes, in tree
// index order, accumulating into the block's out rows — the one walk
// behind both runBlock and PredictProbaCodes.
func (q *QuantForest) walkBlock(codes []uint8, out []float64) {
	for ti := range q.trees {
		q.trees[ti].accumBlock(codes, out)
	}
}

// accumBlock is the hot kernel. Four rows advance through the tree
// together: each step is two loads (packed node word, row's code byte)
// plus shift/mask ALU, and the child pointer is selected by the
// comparison's sign bit — no data-dependent branch, so the four
// independent chases pipeline instead of serializing on load latency.
// Rows that reach a leaf early self-loop until the group's AND-ed leaf
// bits end the walk; per-row probabilities are then added in row order.
// Four (not eight) rows per group because the working set — four node
// indices, four node words, one code base, and the node-table base — is
// what fits in registers; an eight-row group pushes half its state to
// the stack and puts store-forward latency on the critical
// pointer-chase chain. The column-major slab makes all four lanes share
// one base pointer (lane offsets are the constants 0..3), which is what
// gets the working set down to register size.
//
// The loads go through unsafe pointers (like frame's slab reinterpret
// casts) because eight bounds checks per level cost more than the
// arithmetic: every index is structurally in range — node indices come
// from the packed 15-bit child fields of the same tree, and code
// offsets are slot*256 + row with slot < NumSlots and row < the block
// length.
func (qt *quantTree) accumBlock(codes []uint8, out []float64) {
	packed, prob := qt.packed, qt.prob
	pp := unsafe.Pointer(unsafe.SliceData(packed))
	rp := unsafe.Pointer(unsafe.SliceData(prob))
	op := unsafe.Pointer(unsafe.SliceData(out))
	cb := unsafe.Pointer(unsafe.SliceData(codes))
	n := len(out)
	r := 0
	for ; r+4 <= n; r += 4 {
		cg := unsafe.Add(cb, r) // lane i's code for slot s is cg[s*256+i]
		var k0, k1, k2, k3 uintptr
		for {
			w0 := *(*uint32)(unsafe.Add(pp, k0*4))
			w1 := *(*uint32)(unsafe.Add(pp, k1*4))
			w2 := *(*uint32)(unsafe.Add(pp, k2*4))
			w3 := *(*uint32)(unsafe.Add(pp, k3*4))
			// All four at leaves ⟺ the AND of the threshold bytes is the
			// reserved 0xff (internal thresholds are ≤ 254, so each clears
			// at least one bit). Checked every other level: finished lanes
			// self-loop, so the extra un-checked step is harmless, and the
			// saved compare+branch outweighs the occasional spin level.
			if w0&w1&w2&w3&0xff == packedLeafThr {
				break
			}
			k0 = packedStep(w0, cg, 0)
			k1 = packedStep(w1, cg, 1)
			k2 = packedStep(w2, cg, 2)
			k3 = packedStep(w3, cg, 3)
			w0 = *(*uint32)(unsafe.Add(pp, k0*4))
			w1 = *(*uint32)(unsafe.Add(pp, k1*4))
			w2 = *(*uint32)(unsafe.Add(pp, k2*4))
			w3 = *(*uint32)(unsafe.Add(pp, k3*4))
			k0 = packedStep(w0, cg, 0)
			k1 = packedStep(w1, cg, 1)
			k2 = packedStep(w2, cg, 2)
			k3 = packedStep(w3, cg, 3)
		}
		ob := unsafe.Add(op, r*8)
		*(*float64)(ob) += *(*float64)(unsafe.Add(rp, k0*8))
		*(*float64)(unsafe.Add(ob, 8)) += *(*float64)(unsafe.Add(rp, k1*8))
		*(*float64)(unsafe.Add(ob, 16)) += *(*float64)(unsafe.Add(rp, k2*8))
		*(*float64)(unsafe.Add(ob, 24)) += *(*float64)(unsafe.Add(rp, k3*8))
	}
	// Tail rows walk scalar with an early-exit leaf branch.
	for ; r < n; r++ {
		k := 0
		for {
			w := packed[k]
			if w&0xff == packedLeafThr {
				out[r] += prob[k]
				break
			}
			c := codes[int(w&packedSlotMask)+r]
			d := uint32(int32(w&0xff)-int32(c)) >> 31
			k = int(w>>packedShiftKid) + int(d)
		}
	}
}

// packedStep advances one node: load the lane's code byte (w & 0x1ff00
// is the slot's slab offset, lane its row offset), compare it against
// the packed threshold byte, and add the comparison's sign bit to the
// left-child index (right = left + 1 by the breadth-first renumbering;
// a leaf's 0xff threshold keeps the sign bit 0 and its child field
// points at itself).
func packedStep(w uint32, cg unsafe.Pointer, lane uintptr) uintptr {
	c := *(*uint8)(unsafe.Add(cg, uintptr(w&packedSlotMask)+lane))
	d := uint32(int32(w&0xff)-int32(c)) >> 31
	return uintptr(w>>packedShiftKid) + uintptr(d)
}

// checkWire verifies stored compiled thresholds against this (freshly
// recompiled) form — the bundle loader's integrity check that a v4 file
// was not corrupted between the schema hash and the forest blob. The
// stored side-channel flags are a retired format field: every one must
// be zero.
func (q *QuantForest) checkWire(qthr, flags [][]uint8) error {
	if len(qthr) != len(q.trees) || len(flags) != len(q.trees) {
		return fmt.Errorf("forest: quantized form: %d/%d stored threshold sets for %d trees",
			len(qthr), len(flags), len(q.trees))
	}
	for i := range q.trees {
		if !bytes.Equal(qthr[i], q.trees[i].qthr) {
			return fmt.Errorf("forest: quantized form: tree %d stored code thresholds diverge from recompiled form (corrupt bundle)", i)
		}
		if len(flags[i]) != len(qthr[i]) {
			return fmt.Errorf("forest: quantized form: tree %d has %d stored flags for %d nodes (corrupt bundle)", i, len(flags[i]), len(qthr[i]))
		}
		for _, fl := range flags[i] {
			if fl != 0 {
				return fmt.Errorf("forest: quantized form: tree %d carries float side-channel flags, which this build does not read", i)
			}
		}
	}
	return nil
}
