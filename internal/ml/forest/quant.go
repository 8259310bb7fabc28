// Compiled batch inference: a fitted forest is lowered ("compiled") into
// a packed form whose nodes compare exact 64-bit order keys
// (frame.OrderKey) instead of float64 values. Batch traversal then walks
// a column-major key slab in row blocks that are keyed once and walked
// by every tree while resident.
//
// Bit-identity, not approximation: OrderKey is an order isomorphism from
// the non-NaN float64s (−0 folded onto +0) into the uint64s, and it keys
// NaN of either sign to MaxUint64, past every threshold key. So
// OrderKey(v) ≤ OrderKey(thr) ⟺ v ≤ thr for every float64 v the walk
// can see (±Inf and NaN included) and every threshold (never NaN: the
// tree decoder refuses one), and the key walk takes the float walk's
// branch at every node. Keying a value is a handful of ALU ops with no
// table and no search. Accumulation order per row is tree order, the same
// as the float walk, so the compiled path returns bit-identical
// probabilities at any worker count.
//
// Every fitted forest compiles from its own thresholds — exact-splitter
// midpoints and histogram edges alike — unless it is too wide or too deep
// for the packed word (see Compile); those keep the float walk. There is
// no partial form: a compiled forest is packed end to end. The compiled
// form is never stored: the fit and the gob decoder both build it from
// the trees.
//
// Two micro-architectural choices make the compiled walk fast:
//
//   - The key slab is column-major in 32-row blocks: a slot's 32 keys
//     are 256 contiguous bytes, so a block's slab is keyed one column at
//     a time with contiguous stores, and the slot's byte offset in the
//     block is slot × 256.
//   - Trees walk a packed form: one uint32 per node carrying (leaf mark,
//     feature slot pre-scaled by the 256-byte column stride, left child),
//     plus a per-node uint64 threshold key beside it, so a traversal step
//     is three loads and a few ALU ops with no data-dependent branch (the
//     child is selected by adding the key subtraction's borrow bit —
//     right = left + 1 by a breadth-first renumbering). Four rows are
//     interleaved per tree so their independent pointer chases overlap
//     instead of serializing on load latency, and four is chosen so the
//     whole walk state stays in registers.
package forest

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"monitorless/internal/frame"
	"monitorless/internal/parallel"
)

// Slab geometry. A key block is keyBlockRows rows; within it slot s's
// keys are the 256 bytes at s*keyColBytes, row r's key at +r*8. The
// parallel unit is taskRows rows (8 consecutive blocks): a batch of up
// to taskRows rows — a serving shard's — walks inline, and each task's
// slab is keyed once and walked by every tree.
const (
	keyBlockRows = 32
	keyColBytes  = keyBlockRows * 8
	taskRows     = 256
)

// Packed-node field layout (quantTree.packed): bits 0-7 leaf mark, 8-16
// feature slot, 17-31 left child; nodes are renumbered breadth-first at
// pack time so a node's right child is always left+1 and a single 15-bit
// field addresses both. Because a block's key slab is column-major with a
// 256-byte column stride, `w & 0x1ff00` IS the slot's byte offset into
// the block (slot × 256) — the walk extracts it with one AND, no shift.
// The low byte is 0xff for a leaf and 0 for an internal node. A leaf's
// threshold key is MaxUint64, which no key exceeds, so its step "goes
// left" into its own index (self-loop) and rows that finish early spin
// harmlessly until the whole interleave group is done.
const (
	packedSlotMask = 0x1ff00
	packedShiftKid = 17
	packedLeafThr  = 0xff
	packedMaxSlots = 1 << 9  // the slot field is 9-bit
	packedMaxNodes = 1 << 15 // the child field is 15-bit
)

// QuantForest is the compiled packed form of a fitted Forest. It is
// immutable after Compile (safe for concurrent prediction) except for
// the parallelism knob and the internal scratch pool.
type QuantForest struct {
	nFeatures int
	// slotCols maps key-slab slot -> source column: only columns some
	// node actually tests get keyed per block.
	slotCols []int32
	trees    []quantTree
	// par bounds task-level parallelism (0 = the pool default width).
	par  int
	pool sync.Pool // *[]uint64, one task's key slab
}

// quantTree is one compiled tree in its breadth-first numbering: the
// packed node words, the threshold keys and the leaf probabilities.
type quantTree struct {
	packed []uint32
	tkey   []uint64
	prob   []float64
}

// Compile lowers a fitted forest into its packed form from its own
// thresholds. It does not modify f. It returns the whole forest packed or
// an error — never a partial form: the forest must be fitted and fit the
// packed word (at most 512 tested columns, 32 768 nodes per tree).
func Compile(f *Forest) (*QuantForest, error) {
	if f == nil || !f.fitted {
		return nil, fmt.Errorf("forest: compile: forest is not fitted")
	}
	// The columns tested get a slot in the per-block key slab, in column
	// order.
	used := make([]bool, f.nFeatures)
	for ti, t := range f.trees {
		feat, _, _, _, _ := t.Slabs()
		if len(feat) == 0 || len(feat) > packedMaxNodes {
			return nil, fmt.Errorf("forest: compile: tree %d has %d nodes, the packed form holds 1 to %d", ti, len(feat), packedMaxNodes)
		}
		for _, fc := range feat {
			if fc >= 0 {
				used[fc] = true
			}
		}
	}
	q := &QuantForest{
		nFeatures: f.nFeatures,
		par:       f.cfg.Parallelism,
		trees:     make([]quantTree, len(f.trees)),
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
	for ti, t := range f.trees {
		feat, left, right, thr, prob := t.Slabs()
		q.trees[ti].pack(feat, left, right, thr, prob, slotOf)
	}
	return q, nil
}

// pack builds the branchless walk form: one uint32 and one threshold key
// per node in a breadth-first renumbering that makes every right child
// its left sibling + 1, plus the leaf probabilities in the same
// numbering. Leaves carry the leaf mark 0xff, slot 0, the threshold key
// MaxUint64, and self-loop through their child field. slotOf maps a
// source column to its key-slab slot.
func (qt *quantTree) pack(feat, left, right []int32, thr, prob []float64, slotOf []int32) {
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
	qt.tkey = make([]uint64, len(order))
	qt.prob = make([]float64, len(order))
	for ni, old := range order {
		qt.prob[ni] = prob[old]
		if feat[old] < 0 {
			qt.packed[ni] = packedLeafThr | uint32(ni)<<packedShiftKid
			qt.tkey[ni] = math.MaxUint64
			continue
		}
		qt.packed[ni] = uint32(slotOf[feat[old]])*keyColBytes |
			uint32(newIdx[left[old]])<<packedShiftKid
		qt.tkey[ni] = frame.OrderKey(thr[old])
	}
}

// NumSlots returns how many source columns the per-block keying touches
// (a 32-row block's key slab is NumSlots × 256 bytes).
func (q *QuantForest) NumSlots() int { return len(q.slotCols) }

// FullyQuantized reports whether every node compares keys. Compile
// returns nothing else, so it is always true; it stays for callers that
// assert the compiled form.
func (q *QuantForest) FullyQuantized() bool { return true }

// SetParallelism bounds task-level fan-out (0 = pool default, 1 =
// serial). Prediction output is bit-identical at any setting.
func (q *QuantForest) SetParallelism(n int) { q.par = n }

// workers resolves the parallelism knob to a worker count.
func (q *QuantForest) workers() int {
	if q.par > 0 {
		return q.par
	}
	return parallel.DefaultWorkers()
}

// accumCols adds the tree sums of len(out) rows of the column-major batch
// cols into out (caller-zeroed): out[p] takes row rows[p], or row p when
// rows is nil. It tiles the rows into taskRows tasks and fans them out;
// each task keys its rows into a pooled slab, walks it and writes a
// disjoint out range, so the result is bit-identical at any worker
// count. Single-task batches and explicit parallelism 1 run inline with
// zero closure allocation.
func (q *QuantForest) accumCols(cols [][]float64, rows []int, out []float64) {
	nTasks := (len(out) + taskRows - 1) / taskRows
	workers := q.workers()
	if workers == 1 || nTasks <= 1 {
		for t := 0; t < nTasks; t++ {
			q.runTask(cols, rows, t, out)
		}
		return
	}
	// fn never returns an error and the context never cancels, so the
	// pool error is structurally nil.
	_ = parallel.Do(context.Background(), workers, nTasks, func(t int) error {
		q.runTask(cols, rows, t, out)
		return nil
	})
}

// runTask keys task t's rows, block by block, into a pooled slab in the
// QuantizeBatch layout, then walks every tree over it.
func (q *QuantForest) runTask(cols [][]float64, rows []int, t int, out []float64) {
	lo := t * taskRows
	hi := min(lo+taskRows, len(out))
	ns := len(q.slotCols)
	need := ns * taskRows
	sp, _ := q.pool.Get().(*[]uint64)
	if sp == nil || cap(*sp) < need {
		s := make([]uint64, need)
		sp = &s
	}
	keys := (*sp)[:need]
	for b := 0; lo+b*keyBlockRows < hi; b++ {
		blo := lo + b*keyBlockRows
		q.keyBlock(cols, rows, blo, min(blo+keyBlockRows, hi), keys[b*ns*keyBlockRows:])
	}
	q.walkKeys(keys, out[lo:hi])
	q.pool.Put(sp)
}

// keyBlock writes the order keys of rows [lo, hi) — at most one block —
// of every tested column into one block's slab: slot si's keys at
// slab[si*keyBlockRows:]. Row p is rows[p] when rows is non-nil. Slab
// rows past hi-lo are left stale; the walk never reads them.
func (q *QuantForest) keyBlock(cols [][]float64, rows []int, lo, hi int, slab []uint64) {
	for si, col := range q.slotCols {
		dst := slab[si*keyBlockRows : si*keyBlockRows+hi-lo]
		src := cols[col]
		if rows == nil {
			for i, v := range src[lo:hi] {
				dst[i] = frame.OrderKey(v)
			}
			continue
		}
		for i, ri := range rows[lo:hi] {
			dst[i] = frame.OrderKey(src[ri])
		}
	}
}

// walkKeys walks every tree over a run of consecutive key blocks holding
// len(out) rows (at most one task), accumulating into out: tree-major,
// so each tree's nodes stay hot across the whole run, and each row still
// adds its trees in index order — the one walk behind both runTask and
// PredictProbaCodes.
func (q *QuantForest) walkKeys(keys []uint64, out []float64) {
	blockKeys := len(q.slotCols) * keyBlockRows
	for ti := range q.trees {
		qt := &q.trees[ti]
		for b, lo := 0, 0; lo < len(out); b, lo = b+1, lo+keyBlockRows {
			qt.accumBlock(keys[b*blockKeys:], out[lo:min(lo+keyBlockRows, len(out))])
		}
	}
}

// accumBlock is the hot kernel over one key block. Four rows advance
// through the tree together: each step is three loads (packed node word,
// node threshold key, row's key) plus shift/mask ALU, and the child
// pointer is selected by the key subtraction's borrow — no
// data-dependent branch, so the four independent chases pipeline instead
// of serializing on load latency. Rows that reach a leaf early self-loop
// until the group's AND-ed leaf bytes end the walk; per-row
// probabilities are then added in row order. Four (not eight) rows per
// group because the working set — four node indices, four node words,
// one key base, and the node-table bases — is what fits in registers.
// The column-major slab makes all four lanes share one base pointer
// (lane offsets are the constants 0..3 × 8).
//
// The loads go through unsafe pointers (like frame's slab reinterpret
// casts) because a dozen bounds checks per level cost more than the
// arithmetic: every index is structurally in range — node indices come
// from the packed 15-bit child fields of the same tree, and key offsets
// are slot*256 + row*8 with slot < NumSlots and row < the block length.
func (qt *quantTree) accumBlock(keys []uint64, out []float64) {
	packed, tkey, prob := qt.packed, qt.tkey, qt.prob
	pp := unsafe.Pointer(unsafe.SliceData(packed))
	tp := unsafe.Pointer(unsafe.SliceData(tkey))
	rp := unsafe.Pointer(unsafe.SliceData(prob))
	op := unsafe.Pointer(unsafe.SliceData(out))
	kb := unsafe.Pointer(unsafe.SliceData(keys))
	n := len(out)
	r := 0
	for ; r+4 <= n; r += 4 {
		kg := unsafe.Add(kb, r*8) // lane i's key for slot s is at byte s*256 + i*8
		var k0, k1, k2, k3 uintptr
		for {
			w0 := *(*uint32)(unsafe.Add(pp, k0*4))
			w1 := *(*uint32)(unsafe.Add(pp, k1*4))
			w2 := *(*uint32)(unsafe.Add(pp, k2*4))
			w3 := *(*uint32)(unsafe.Add(pp, k3*4))
			// All four at leaves ⟺ the AND of the low bytes is the leaf
			// mark 0xff (an internal node's is 0). Checked every other
			// level: finished lanes self-loop, so the extra un-checked step
			// is harmless, and the saved compare+branch outweighs the
			// occasional spin level.
			if w0&w1&w2&w3&0xff == packedLeafThr {
				break
			}
			k0 = keyStep(w0, tp, k0, kg, 0)
			k1 = keyStep(w1, tp, k1, kg, 8)
			k2 = keyStep(w2, tp, k2, kg, 16)
			k3 = keyStep(w3, tp, k3, kg, 24)
			w0 = *(*uint32)(unsafe.Add(pp, k0*4))
			w1 = *(*uint32)(unsafe.Add(pp, k1*4))
			w2 = *(*uint32)(unsafe.Add(pp, k2*4))
			w3 = *(*uint32)(unsafe.Add(pp, k3*4))
			k0 = keyStep(w0, tp, k0, kg, 0)
			k1 = keyStep(w1, tp, k1, kg, 8)
			k2 = keyStep(w2, tp, k2, kg, 16)
			k3 = keyStep(w3, tp, k3, kg, 24)
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
			_, right := bits.Sub64(tkey[k], keys[int(w&packedSlotMask)/8+r], 0)
			k = int(w>>packedShiftKid) + int(right)
		}
	}
}

// keyStep advances one node k with packed word w: load the lane's key
// (w & 0x1ff00 is the slot's byte offset in the block, lane the row's)
// and the node's threshold key, and add the borrow of threshold − key —
// 1 exactly when key > threshold, i.e. the value goes right — to the
// left-child index (right = left + 1 by the breadth-first renumbering;
// a leaf's MaxUint64 key never borrows and its child field points at
// itself).
func keyStep(w uint32, tp unsafe.Pointer, k uintptr, kg unsafe.Pointer, lane uintptr) uintptr {
	v := *(*uint64)(unsafe.Add(kg, uintptr(w&packedSlotMask)+lane))
	_, right := bits.Sub64(*(*uint64)(unsafe.Add(tp, k*8)), v, 0)
	return uintptr(w>>packedShiftKid) + uintptr(right)
}
