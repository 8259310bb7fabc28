package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// treeWire mirrors Tree for gob encoding (the working fields are
// unexported to keep the public API small). The wire format was already
// struct-of-arrays before the in-memory layout was, so bundles written
// by earlier versions decode unchanged.
type treeWire struct {
	Cfg         Config
	Features    []int32
	Left        []int32
	Right       []int32
	Thresholds  []float64
	Probs       []float64
	NFeatures   int
	Importances []float64
	Fitted      bool
}

// GobEncode implements gob.GobEncoder.
func (t *Tree) GobEncode() ([]byte, error) {
	w := treeWire{
		Cfg:         t.cfg,
		Features:    t.feature,
		Left:        t.left,
		Right:       t.right,
		Thresholds:  t.threshold,
		Probs:       t.prob,
		NFeatures:   t.nFeatures,
		Importances: t.importances,
		Fitted:      t.fitted,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("tree: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. Bundles arrive over the network
// (POST /model), so the node slabs are validated before anything walks
// them.
func (t *Tree) GobDecode(data []byte) error {
	var w treeWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("tree: gob decode: %w", err)
	}
	if err := w.valid(); err != nil {
		return fmt.Errorf("tree: gob decode: %w", err)
	}
	t.cfg = w.Cfg
	t.feature = w.Features
	t.left = w.Left
	t.right = w.Right
	t.threshold = w.Thresholds
	t.prob = w.Probs
	t.nFeatures = w.NFeatures
	t.importances = w.Importances
	t.fitted = w.Fitted
	t.compact()
	return nil
}

// valid checks that the decoded slabs form a tree every walk finishes in
// range: the five node slabs have one entry per node, a fitted tree has a
// root, every internal node i tests a feature in [0, NFeatures), has two
// children in (i, n) that no other node claims and a non-NaN threshold,
// and every leaf probability lies in [0, 1]. The builders append children
// after their parent and train on finite values only, so every fitted
// tree passes. Strictly increasing indices rule out cycles, single
// parents rule out shared subtrees, and a non-NaN threshold keeps the
// float walk and the forest's order-key walk (which keys NaN past every
// value) on the same branch.
func (w *treeWire) valid() error {
	n := len(w.Features)
	if len(w.Left) != n || len(w.Right) != n || len(w.Thresholds) != n || len(w.Probs) != n {
		return fmt.Errorf("node slabs disagree: %d features, %d left, %d right, %d thresholds, %d probs",
			n, len(w.Left), len(w.Right), len(w.Thresholds), len(w.Probs))
	}
	if w.Fitted && n == 0 {
		return fmt.Errorf("fitted tree has no nodes")
	}
	claimed := make([]bool, n)
	for i, f := range w.Features {
		if f < 0 {
			if p := w.Probs[i]; !(p >= 0 && p <= 1) {
				return fmt.Errorf("leaf %d: probability %v outside [0, 1]", i, p)
			}
			continue
		}
		if int(f) >= w.NFeatures {
			return fmt.Errorf("node %d tests feature %d of %d", i, f, w.NFeatures)
		}
		if math.IsNaN(w.Thresholds[i]) {
			return fmt.Errorf("node %d: NaN threshold", i)
		}
		l, r := int(w.Left[i]), int(w.Right[i])
		if l <= i || r <= i || l >= n || r >= n {
			return fmt.Errorf("node %d: children %d, %d not in (%d, %d)", i, l, r, i, n)
		}
		if l == r || claimed[l] || claimed[r] {
			return fmt.Errorf("node %d: child %d or %d has another parent", i, l, r)
		}
		claimed[l], claimed[r] = true, true
	}
	return nil
}
