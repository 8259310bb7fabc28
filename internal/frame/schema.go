package frame

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Col is the metadata of one column. It is the single schema
// representation shared by the dataset layer (raw metric definitions),
// the feature pipeline (engineered feature metadata) and the model bundle
// (schema fingerprinting).
type Col struct {
	// Name is the metric or engineered feature name.
	Name string
	// Domain groups columns by subsystem (cross-domain products).
	Domain string
	// Util marks relative-scale utilization columns (binary-feature
	// sources).
	Util bool
	// Binary marks hot-encoded level columns (always product-eligible).
	Binary bool
	// TimeDerived marks X-AVG/X-LAG columns (excluded from products).
	TimeDerived bool
	// Log marks columns that the expansion step moved to a log scale.
	Log bool
}

// Schema is an ordered column list.
type Schema []Col

// Names lists the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone deep-copies the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// flagBits packs the column flags into one byte.
func (c Col) flagBits() byte {
	var b byte
	if c.Util {
		b |= 1
	}
	if c.Binary {
		b |= 2
	}
	if c.TimeDerived {
		b |= 4
	}
	if c.Log {
		b |= 8
	}
	return b
}

// Hash fingerprints the schema: the hex SHA-256 of every column's name,
// domain and flags, each length-prefixed so the encoding is unambiguous.
// It is sensitive to column order, names, domains and flags — reordering
// two columns or flipping one flag changes the hash. The model bundle
// derives its schema fingerprint from this single function.
func (s Schema) Hash() string {
	h := sha256.New()
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s)))
	h.Write(n[:])
	for _, c := range s {
		binary.BigEndian.PutUint32(n[:], uint32(len(c.Name)))
		h.Write(n[:])
		h.Write([]byte(c.Name))
		binary.BigEndian.PutUint32(n[:], uint32(len(c.Domain)))
		h.Write(n[:])
		h.Write([]byte(c.Domain))
		h.Write([]byte{c.flagBits()})
	}
	return hex.EncodeToString(h.Sum(nil))
}
