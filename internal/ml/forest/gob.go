package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"monitorless/internal/ml/tree"
)

// forestWire mirrors Forest for gob encoding. BinEdges/QuantThr/
// QuantFlags carry the compiled quantized form (bundle v4): the
// per-feature bin edges plus each tree's per-node code thresholds. The
// side-channel flags are a retired field written as zeros (so the
// format, and every bundle byte, is unchanged) and rejected when not
// zero. They are nil for uncompiled forests, and gob drops unknown stream
// fields, so pre-v4 readers and writers interoperate with this shape in
// both directions.
type forestWire struct {
	Cfg         Config
	Trees       []*tree.Tree
	Importances []float64
	NFeatures   int
	Fitted      bool
	BinEdges    [][]float64
	QuantThr    [][]uint8
	QuantFlags  [][]uint8
}

// GobEncode implements gob.GobEncoder.
func (f *Forest) GobEncode() ([]byte, error) {
	w := forestWire{
		Cfg:         f.cfg,
		Trees:       f.trees,
		Importances: f.importances,
		NFeatures:   f.nFeatures,
		Fitted:      f.fitted,
	}
	if q := f.quant; q != nil {
		w.BinEdges = q.edges
		w.QuantThr = make([][]uint8, len(q.trees))
		w.QuantFlags = make([][]uint8, len(q.trees))
		for i := range q.trees {
			w.QuantThr[i] = q.trees[i].qthr
			w.QuantFlags[i] = make([]uint8, len(q.trees[i].qthr))
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("forest: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. Every tree has already validated
// its own slabs (tree.GobDecode); here each must also read the forest's
// feature width. A stream carrying bin edges is recompiled into its
// quantized predictor — Compile checks the edge sets — and the stored
// code thresholds are verified against the recompiled form: the compiled
// artifact is checked, never trusted blindly.
func (f *Forest) GobDecode(data []byte) error {
	var w forestWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("forest: gob decode: %w", err)
	}
	if w.Fitted && len(w.Trees) == 0 {
		return fmt.Errorf("forest: gob decode: fitted forest has no trees")
	}
	for i, t := range w.Trees {
		if t.NumFeatures() != w.NFeatures {
			return fmt.Errorf("forest: gob decode: tree %d reads %d features, forest has %d", i, t.NumFeatures(), w.NFeatures)
		}
	}
	f.cfg = w.Cfg
	f.trees = w.Trees
	f.importances = w.Importances
	f.nFeatures = w.NFeatures
	f.fitted = w.Fitted
	f.quant = nil
	if w.BinEdges != nil {
		if err := f.CompileQuant(w.BinEdges); err != nil {
			return fmt.Errorf("forest: gob decode: %w", err)
		}
		if err := f.quant.checkWire(w.QuantThr, w.QuantFlags); err != nil {
			f.quant = nil
			return fmt.Errorf("forest: gob decode: %w", err)
		}
	}
	return nil
}
