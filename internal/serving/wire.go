package serving

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"monitorless/internal/pcp"
)

// Binary batch wire format for /ingest — the fleet-scale alternative to
// the JSON observation encoding. A JSON observation at catalog width
// (~267 metrics) spends ~20 bytes of text per float plus per-sample key
// overhead; the binary frame packs the same observation as one fixed
// header, a compact uvarint-prefixed instance-ID table, and row-major
// little-endian float64 values — roughly 8.1 bytes per metric, a ~2.5×
// wire reduction and an order-of-magnitude decode speedup (no text
// parsing, values land by copy).
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "MLBF"
//	4       1     version (currently 1)
//	5       1     flags (must be 0; reserved)
//	6       8     T, observation second (int64)
//	14      32    schema hash, raw SHA-256 bytes (all-zero = unset)
//	46      4     width — float64 values per sample (≥1)
//	50      4     count — samples in the frame (≥1)
//	54      …     count × {uvarint len + bytes} × (instance, app, service)
//	…       …     count × width × 8 — values, row-major
//
// A frame must end exactly at the last value byte; trailing junk is
// rejected. Decoding never allocates more than a small constant factor
// of the input length: width and count are bounded by MaxWireWidth and
// MaxWireSamples, and the declared counts are checked against the
// remaining byte budget before any count-sized allocation happens.

// WireContentType labels binary batch frames on the /ingest endpoint.
// JSON remains the compat encoding on the same endpoint; the server
// negotiates by Content-Type.
const WireContentType = "application/x-monitorless-frame"

const (
	wireVersion   = 1
	wireHeaderLen = 4 + 1 + 1 + 8 + 32 + 4 + 4

	// MaxWireWidth bounds the per-sample vector width (the catalog is a
	// few hundred metrics; 16k leaves ample headroom).
	MaxWireWidth = 1 << 14
	// MaxWireSamples bounds the per-frame sample count (~4M instances).
	MaxWireSamples = 1 << 22
	// MaxWireString bounds one instance/app/service identifier.
	MaxWireString = 1 << 12
)

var wireMagic = []byte("MLBF")

// AppendWire appends the binary frame encoding of obs to dst (which may
// be nil) and returns the extended slice — the allocation-free encode
// path for senders that reuse a buffer per tick. All samples must share
// one vector width; SchemaHash, when set, must be a hex SHA-256 (64 hex
// digits).
func AppendWire(dst []byte, obs pcp.WireObservation) ([]byte, error) {
	if len(obs.Samples) == 0 {
		return nil, fmt.Errorf("serving: wire encode: observation with no samples")
	}
	if len(obs.Samples) > MaxWireSamples {
		return nil, fmt.Errorf("serving: wire encode: %d samples exceeds limit %d", len(obs.Samples), MaxWireSamples)
	}
	width := len(obs.Samples[0].Values)
	if width < 1 || width > MaxWireWidth {
		return nil, fmt.Errorf("serving: wire encode: sample width %d outside [1,%d]", width, MaxWireWidth)
	}
	var hash [32]byte
	if obs.SchemaHash != "" {
		// Decoded in place (not hex.DecodeString) so buffer-reusing
		// senders stay allocation-free.
		if len(obs.SchemaHash) != 2*len(hash) {
			return nil, fmt.Errorf("serving: wire encode: schema hash %q is not a hex SHA-256", obs.SchemaHash)
		}
		for i := range hash {
			hi, ok1 := hexNibble(obs.SchemaHash[2*i])
			lo, ok2 := hexNibble(obs.SchemaHash[2*i+1])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("serving: wire encode: schema hash %q is not a hex SHA-256", obs.SchemaHash)
			}
			hash[i] = hi<<4 | lo
		}
	}

	dst = append(dst, wireMagic...)
	dst = append(dst, wireVersion, 0)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(obs.T)))
	dst = append(dst, hash[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(obs.Samples)))
	for i := range obs.Samples {
		s := &obs.Samples[i]
		if s.Instance == "" {
			return nil, fmt.Errorf("serving: wire encode: sample %d has empty instance ID", i)
		}
		if len(s.Values) != width {
			return nil, fmt.Errorf("serving: wire encode: sample %d width %d, want %d", i, len(s.Values), width)
		}
		var err error
		if dst, err = appendWireString(dst, s.Instance); err != nil {
			return nil, fmt.Errorf("serving: wire encode: sample %d: %w", i, err)
		}
		if dst, err = appendWireString(dst, s.App); err != nil {
			return nil, fmt.Errorf("serving: wire encode: sample %d: %w", i, err)
		}
		if dst, err = appendWireString(dst, s.Service); err != nil {
			return nil, fmt.Errorf("serving: wire encode: sample %d: %w", i, err)
		}
	}
	for i := range obs.Samples {
		for _, v := range obs.Samples[i].Values {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

func appendWireString(dst []byte, s string) ([]byte, error) {
	if len(s) > MaxWireString {
		return nil, fmt.Errorf("identifier of %d bytes exceeds limit %d", len(s), MaxWireString)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

// WireScratch recycles a decode's two slabs (the sample headers and the
// value matrix) across requests of either encoding. Identifier strings are
// still freshly allocated — they outlive the request inside the service's
// instance maps.
type WireScratch struct {
	samples []pcp.WireSample
	vals    []float64
	spans   []valSpan // JSON only: per-sample value ranges while vals grows
}

// DecodeWire parses a binary batch frame. Any malformed input yields an
// error, never a panic, and allocation stays proportional to the input
// size (declared counts are validated against the remaining bytes before
// they size an allocation).
func DecodeWire(b []byte) (pcp.WireObservation, error) {
	return DecodeWireScratch(b, nil)
}

// DecodeWireScratch is DecodeWire with caller-owned slabs: the returned
// observation's Samples and Values alias sc and are only valid until the
// next DecodeWireScratch call with the same scratch. A nil scratch
// behaves exactly like DecodeWire.
func DecodeWireScratch(b []byte, sc *WireScratch) (pcp.WireObservation, error) {
	var zero pcp.WireObservation
	if len(b) < wireHeaderLen {
		return zero, fmt.Errorf("serving: wire decode: %d bytes, need at least %d", len(b), wireHeaderLen)
	}
	if !bytes.Equal(b[:4], wireMagic) {
		return zero, fmt.Errorf("serving: wire decode: bad magic %q", b[:4])
	}
	if b[4] != wireVersion {
		return zero, fmt.Errorf("serving: wire decode: unsupported version %d", b[4])
	}
	if b[5] != 0 {
		return zero, fmt.Errorf("serving: wire decode: unknown flags 0x%02x", b[5])
	}
	t := int64(binary.LittleEndian.Uint64(b[6:14]))
	var schemaHash string
	if rawHash := b[14:46]; !allZero(rawHash) {
		schemaHash = hex.EncodeToString(rawHash)
	}
	width := int(binary.LittleEndian.Uint32(b[46:50]))
	count := int(binary.LittleEndian.Uint32(b[50:54]))
	if width < 1 || width > MaxWireWidth {
		return zero, fmt.Errorf("serving: wire decode: width %d outside [1,%d]", width, MaxWireWidth)
	}
	if count < 1 || count > MaxWireSamples {
		return zero, fmt.Errorf("serving: wire decode: count %d outside [1,%d]", count, MaxWireSamples)
	}
	rest := b[wireHeaderLen:]
	// Cheapest-possible-frame budget before any count-sized allocation:
	// each sample needs at least three 1-byte string lengths plus
	// width×8 value bytes, so a short input cannot buy a huge slice.
	if minBytes := uint64(count) * (3 + uint64(width)*8); uint64(len(rest)) < minBytes {
		return zero, fmt.Errorf("serving: wire decode: %d samples × width %d needs ≥%d body bytes, have %d",
			count, width, minBytes, len(rest))
	}

	var samples []pcp.WireSample
	if sc != nil {
		if cap(sc.samples) < count {
			sc.samples = make([]pcp.WireSample, count)
		}
		// Every field of every entry is assigned below, so reused entries
		// need no clearing.
		samples = sc.samples[:count]
	} else {
		samples = make([]pcp.WireSample, count)
	}
	off := 0
	for i := range samples {
		var err error
		if samples[i].Instance, off, err = readWireString(rest, off); err != nil {
			return zero, fmt.Errorf("serving: wire decode: sample %d instance: %w", i, err)
		}
		if samples[i].Instance == "" {
			return zero, fmt.Errorf("serving: wire decode: sample %d has empty instance ID", i)
		}
		if samples[i].App, off, err = readWireString(rest, off); err != nil {
			return zero, fmt.Errorf("serving: wire decode: sample %d app: %w", i, err)
		}
		if samples[i].Service, off, err = readWireString(rest, off); err != nil {
			return zero, fmt.Errorf("serving: wire decode: sample %d service: %w", i, err)
		}
	}
	need := count * width * 8
	if len(rest)-off != need {
		return zero, fmt.Errorf("serving: wire decode: %d value bytes after ID table, want exactly %d", len(rest)-off, need)
	}
	var vals []float64
	if sc != nil {
		if cap(sc.vals) < count*width {
			sc.vals = make([]float64, count*width)
		}
		vals = sc.vals[:count*width]
	} else {
		vals = make([]float64, count*width)
	}
	// A value is non-finite exactly when its 11 exponent bits are all
	// ones, i.e. when adding one to the masked exponent carries into bit
	// 63; OR-ing that sum over the copy keeps the loop branch-free. Four
	// values per step with two accumulators keep the check off the copy's
	// critical path, so the loop is no slower than a bare copy.
	const expMask, expOne = 0x7ff0_0000_0000_0000, 1 << 52
	var nonFinite, nonFinite2 uint64
	src := rest[off:]
	i := 0
	for ; i+4 <= len(vals) && len(src) >= 32; i += 4 {
		b0 := binary.LittleEndian.Uint64(src[0:])
		b1 := binary.LittleEndian.Uint64(src[8:])
		b2 := binary.LittleEndian.Uint64(src[16:])
		b3 := binary.LittleEndian.Uint64(src[24:])
		src = src[32:]
		nonFinite |= (b0&expMask + expOne) | (b1&expMask + expOne)
		nonFinite2 |= (b2&expMask + expOne) | (b3&expMask + expOne)
		v := vals[i : i+4 : i+4]
		v[0], v[1], v[2], v[3] = math.Float64frombits(b0), math.Float64frombits(b1), math.Float64frombits(b2), math.Float64frombits(b3)
	}
	for ; i < len(vals); i++ {
		bits := binary.LittleEndian.Uint64(src)
		src = src[8:]
		nonFinite |= bits&expMask + expOne
		vals[i] = math.Float64frombits(bits)
	}
	if (nonFinite|nonFinite2)>>63 != 0 {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return zero, fmt.Errorf("serving: wire decode: sample %d value %d is %v; only finite values are accepted",
					i/width, i%width, v)
			}
		}
	}
	for i := range samples {
		samples[i].Values = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return pcp.WireObservation{T: int(t), SchemaHash: schemaHash, Samples: samples}, nil
}

func readWireString(b []byte, off int) (string, int, error) {
	n, used := binary.Uvarint(b[off:])
	if used <= 0 {
		return "", 0, fmt.Errorf("truncated length varint")
	}
	if n > MaxWireString {
		return "", 0, fmt.Errorf("declared length %d exceeds limit %d", n, MaxWireString)
	}
	off += used
	if uint64(len(b)-off) < n {
		return "", 0, fmt.Errorf("declared length %d exceeds remaining %d bytes", n, len(b)-off)
	}
	return string(b[off : off+int(n)]), off + int(n), nil
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
