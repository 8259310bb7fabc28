package core

import "monitorless/internal/features"

// Engine is the one online inference engine: everything that turns raw
// per-instance metric vectors into saturation probabilities goes through
// it, as the serving shards run it. It owns an ID→slot registry
// (dense int32 slots, LIFO free list), the features.StateSlab holding
// every slot's ring state, and the batch scratch of the two phases:
//
//	Step     one columnar features.StepBatchInto over a batch of
//	         (slot, raw vector) pairs
//	Predict  one forest walk over the stepped batch
//
// A batch has n ≥ 1 samples; serial inference is a batch of one. Every
// probability is bit-identical to Model.PredictFrame over the instance's
// full history. The two phases are separate calls so a caller can time
// the forest stage between them.
//
// An Engine is not synchronised: one goroutine at a time, the caller
// holds whatever lock guards it. The slice returned by Predict aliases
// engine scratch and is valid until the next Step.
type Engine struct {
	model    *Model
	streamer *features.Streamer

	slotOf map[string]int32
	ids    []string // slot -> instance ID ("" when free)
	free   []int32  // LIFO recycled slots
	states *features.StateSlab

	batch features.BatchScratch
	codes []uint8
	probs []float64
}

// NewEngine returns an empty engine bound to a model and the streamer of
// its pipeline (callers sharing one model across engines share the
// streamer, which is immutable).
func NewEngine(m *Model, str *features.Streamer) *Engine {
	e := &Engine{slotOf: make(map[string]int32)}
	e.Bind(m, str)
	return e
}

// Bind points the engine at a model generation. With the same streamer (a
// warm swap: identical pipeline, new forest) every slot's state carries
// over. A different streamer means a different ring geometry that the old
// state cannot continue under, so registry and slab restart empty and
// Bind reports true — the caller resets whatever it indexes by slot.
func (e *Engine) Bind(m *Model, str *features.Streamer) (reset bool) {
	e.model = m
	if e.streamer == str {
		return false
	}
	e.streamer = str
	clear(e.slotOf)
	e.ids = e.ids[:0]
	e.free = e.free[:0]
	e.states = features.NewStateSlab(str)
	return true
}

// Lookup returns the slot an instance occupies.
func (e *Engine) Lookup(id string) (int32, bool) {
	slot, ok := e.slotOf[id]
	return slot, ok
}

// Acquire returns the instance's slot, registering it when unknown: LIFO
// reuse of a released slot when available (ResetSlot makes recycled rings
// indistinguishable from fresh ones), append-growth otherwise.
func (e *Engine) Acquire(id string) (slot int32, isNew bool) {
	if slot, ok := e.slotOf[id]; ok {
		return slot, false
	}
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.states.ResetSlot(slot)
	} else {
		slot = int32(len(e.ids))
		e.ids = append(e.ids, "")
		e.states.EnsureSlots(len(e.ids))
	}
	e.ids[slot] = id
	e.slotOf[id] = slot
	return slot, true
}

// Release forgets an instance and recycles its slot, reporting the slot
// it held.
func (e *Engine) Release(id string) (int32, bool) {
	slot, ok := e.slotOf[id]
	if !ok {
		return 0, false
	}
	delete(e.slotOf, id)
	e.ids[slot] = ""
	e.free = append(e.free, slot)
	return slot, true
}

// IDs returns the slot→instance-ID table ("" for free slots); its length
// is the slot high-water mark. Read-only, valid until the next Acquire.
func (e *Engine) IDs() []string { return e.ids }

// Samples returns how many samples a slot has absorbed.
func (e *Engine) Samples(slot int32) int { return e.states.Samples(slot) }

// StateBytes returns the allocated footprint of the ring-state slab.
func (e *Engine) StateBytes() int64 { return e.states.Bytes() }

// Step engineers one batch: sample k is raw vector raws[k] of the
// instance in slots[k]. Width, slot-range and duplicate-slot errors leave
// every slot untouched.
func (e *Engine) Step(slots []int32, raws [][]float64) error {
	return e.streamer.StepBatchInto(e.states, slots, raws, &e.batch)
}

// Predict scores the batch the last Step engineered; probs[k] belongs to
// sample k. The route is decided from the model alone: a compiled forest
// — every forest within the packed word's limits, exact or hist — writes
// the order keys of the engineered columns straight into its key slab
// (QuantizeBatch) and walks the keys; the float walk over the same
// columns is only for a forest Compile refused (too wide or too deep for
// the packed word). Neither copies the batch, and the routes are
// bit-identical.
func (e *Engine) Predict() []float64 {
	n := e.batch.Len()
	cols := e.batch.Cols()
	f := e.model.Forest
	if q := f.Quant(); q != nil {
		var err error
		if e.codes, err = q.QuantizeBatch(cols, n, e.codes); err == nil {
			if cap(e.probs) < n {
				e.probs = make([]float64, n)
			}
			e.probs = e.probs[:n]
			if q.PredictProbaCodes(e.codes, e.probs) == nil {
				return e.probs
			}
		}
	}
	e.probs = f.PredictProbaColsInto(cols, n, e.probs)
	return e.probs
}
