package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"monitorless/internal/ml/tree"
)

// forestWire mirrors Forest for gob encoding. The compiled packed form is
// not part of it: GobDecode rebuilds that from the trees. Streams written
// for the v4 bundle format also carry that form's bin edges and code
// thresholds; gob drops stream fields the struct does not name, so they
// decode unchanged and those fields are ignored.
type forestWire struct {
	Cfg         Config
	Trees       []*tree.Tree
	Importances []float64
	NFeatures   int
	Fitted      bool
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("forest: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. Every tree has already validated
// its own slabs (tree.GobDecode); here each must also read the forest's
// feature width. A fitted forest is then compiled from its trees, exactly
// as FitFrame compiles it, so a loaded forest walks the same form a
// freshly fitted one does.
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
	f.quant, _ = Compile(f)
	return nil
}
