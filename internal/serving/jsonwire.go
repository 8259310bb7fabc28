package serving

import (
	"encoding/json"
	"fmt"
	"strconv"

	"monitorless/internal/pcp"
)

// JSON compat encoding of pcp.WireObservation for /ingest. The decoder is
// written for this one schema: it walks the bytes once, appends values and
// samples to the same pooled WireScratch slabs the binary frame uses, and
// hands each number token that passes the RFC 8259 grammar to the strconv
// call encoding/json makes, so every value is bit-identical to
// json.Decoder's. Plain printable-ASCII strings are copied directly; any
// other string token (escapes, control bytes, non-ASCII) goes through
// json.Unmarshal, so escape and UTF-8 handling is encoding/json's too.
//
// Against json.Decoder with DisallowUnknownFields it is stricter in three
// ways: keys must match exactly (encoding/json folds case), a repeated key
// is an error (encoding/json keeps the last), and nothing but whitespace
// may follow the closing brace (json.Decoder.Decode never looks there).
// Everything else it accepts is what encoding/json accepts, including
// null wherever a field would take it.

// Field bits for duplicate-key detection, one set per object.
const (
	fieldT = 1 << iota
	fieldSchemaHash
	fieldSamples
	fieldInstance
	fieldApp
	fieldService
	fieldValues
)

// valSpan locates one sample's values in the scratch value slab while the
// slab may still grow; lo < 0 marks an absent or null values field.
type valSpan struct{ lo, hi int }

// DecodeJSONScratch parses the JSON encoding of an observation — the
// counterpart of DecodeWireScratch. The returned observation's Samples and
// Values alias sc and are only valid until the next decode with the same
// scratch; identifier strings are fresh copies. A nil scratch decodes into
// fresh slabs.
func DecodeJSONScratch(b []byte, sc *WireScratch) (pcp.WireObservation, error) {
	if sc == nil {
		sc = &WireScratch{}
	}
	d := jsonDecoder{b: b, sc: sc}
	obs, err := d.observation()
	if err != nil {
		return pcp.WireObservation{}, fmt.Errorf("serving: json decode: %w", err)
	}
	return obs, nil
}

type jsonDecoder struct {
	b   []byte
	off int
	sc  *WireScratch
}

func (d *jsonDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace and returns the next byte, or 0 at end of input
// (which a NUL byte also reads as; only a caller that would accept either
// must check d.off).
func (d *jsonDecoder) ws() byte {
	for ; d.off < len(d.b); d.off++ {
		switch c := d.b[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// null consumes a null literal if one comes next.
func (d *jsonDecoder) null() bool {
	if d.ws() == 'n' && len(d.b)-d.off >= 4 && string(d.b[d.off:d.off+4]) == "null" {
		d.off += 4
		return true
	}
	return false
}

// key reads the next member name of an object. first says whether the
// opening brace was just consumed; ok is false at the closing brace.
func (d *jsonDecoder) key(first bool) (key []byte, ok bool, err error) {
	c := d.ws()
	switch {
	case c == '}':
		d.off++
		return nil, false, nil
	case !first && c == ',':
		d.off++
		c = d.ws()
	case !first:
		return nil, false, d.errorf("expected ',' or '}' after object member")
	}
	if c != '"' {
		return nil, false, d.errorf("expected object key")
	}
	raw, plain, err := d.stringToken()
	if err != nil {
		return nil, false, err
	}
	if plain {
		key = raw[1 : len(raw)-1]
	} else {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, false, d.errorf("object key: %v", err)
		}
		key = []byte(s)
	}
	if d.ws() != ':' {
		return nil, false, d.errorf("expected ':' after object key")
	}
	d.off++
	return key, true, nil
}

// claim marks a field of the current object as seen and rejects a repeat.
func (d *jsonDecoder) claim(seen *int, bit int, key []byte) error {
	if *seen&bit != 0 {
		return d.errorf("duplicate key %q", key)
	}
	*seen |= bit
	return nil
}

// stringToken scans the string starting at the current offset (which
// must be '"') and returns it with its quotes. plain reports that it is
// printable ASCII without escapes, so its bytes are its value.
func (d *jsonDecoder) stringToken() (raw []byte, plain bool, err error) {
	start := d.off
	plain = true
	for i := start + 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.off = i + 1
			return d.b[start:d.off], plain, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x7f:
			plain = false
		}
	}
	d.off = len(d.b)
	return nil, false, d.errorf("unterminated string")
}

// str reads a string value; null leaves the field empty.
func (d *jsonDecoder) str(field string) (string, error) {
	if d.null() {
		return "", nil
	}
	if d.ws() != '"' {
		return "", d.errorf("%s: expected string", field)
	}
	raw, plain, err := d.stringToken()
	if err != nil {
		return "", err
	}
	if plain {
		return string(raw[1 : len(raw)-1]), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", d.errorf("%s: %v", field, err)
	}
	return s, nil
}

// numToken is one scanned number: its bytes and, when it has at most 19
// significant digits, the exact decomposition mant × 10^exp.
type numToken struct {
	raw  []byte
	mant uint64
	exp  int
	neg  bool
	long bool // more than 19 significant digits: mant is not exact
}

// float64pow10 holds the powers of ten float64 represents exactly.
var float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float is the value encoding/json stores for the token in a float64.
// When mant ≤ 2^53 and |exp| ≤ 22 both operands are exact, so one IEEE
// multiply or divide is the correctly rounded result — strconv's own exact
// fast path, without re-reading the digits. Anything else goes to
// strconv.ParseFloat, as in encoding/json.
func (n *numToken) float() (float64, bool) {
	if !n.long && n.mant <= 1<<53 && n.exp >= -22 && n.exp <= 22 {
		f := float64(n.mant)
		if n.exp < 0 {
			f /= float64pow10[-n.exp]
		} else {
			f *= float64pow10[n.exp]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(n.raw), 64)
	return f, err == nil
}

// number scans one RFC 8259 number token, accumulating its decimal
// decomposition on the way.
func (d *jsonDecoder) number() (numToken, error) {
	b, start := d.b, d.off
	var n numToken
	i := start
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	// Up to 19 significant digits fold into mant; a digit past them is
	// dropped (scaling exp for integer digits) and, if not zero, marks the
	// token long.
	mant, nd, exp := uint64(0), 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp++
				n.long = n.long || b[i] != '0'
			}
		}
	default:
		return n, d.errorf("expected number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				exp--
				if mant != 0 {
					nd++
				}
			} else {
				n.long = n.long || b[i] != '0'
			}
		}
		if i == j {
			d.off = i
			return n, d.errorf("expected digit after decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 1e4 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			d.off = i
			return n, d.errorf("expected digit in exponent")
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.off = i
	n.raw, n.mant, n.exp = b[start:i], mant, exp
	return n, nil
}

// integer reads an int the way encoding/json stores a number into one.
func (d *jsonDecoder) integer(field string) (int, error) {
	n, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(n.raw), 10, strconv.IntSize)
	if err != nil {
		return 0, d.errorf("%s: number %s is not an int", field, n.raw)
	}
	return int(v), nil
}

func (d *jsonDecoder) observation() (pcp.WireObservation, error) {
	var obs pcp.WireObservation
	sc := d.sc
	sc.samples, sc.vals, sc.spans = sc.samples[:0], sc.vals[:0], sc.spans[:0]
	samplesArray := false
	if !d.null() {
		if d.ws() != '{' {
			return obs, d.errorf("expected observation object")
		}
		d.off++
		seen := 0
		for first := true; ; first = false {
			key, ok, err := d.key(first)
			if err != nil {
				return obs, err
			}
			if !ok {
				break
			}
			switch string(key) {
			case "t":
				if err = d.claim(&seen, fieldT, key); err == nil && !d.null() {
					obs.T, err = d.integer("t")
				}
			case "schema_hash":
				if err = d.claim(&seen, fieldSchemaHash, key); err == nil {
					obs.SchemaHash, err = d.str("schema_hash")
				}
			case "samples":
				if err = d.claim(&seen, fieldSamples, key); err == nil && !d.null() {
					samplesArray = true
					err = d.samples()
				}
			default:
				err = d.errorf("unknown field %q", key)
			}
			if err != nil {
				return obs, err
			}
		}
	}
	if d.ws(); d.off < len(d.b) {
		return obs, d.errorf("data after the observation")
	}
	// The slabs have stopped growing: slice each sample's values out.
	for i := range sc.samples {
		if sp := sc.spans[i]; sp.lo >= 0 {
			if sp.lo == sp.hi {
				sc.samples[i].Values = []float64{}
			} else {
				sc.samples[i].Values = sc.vals[sp.lo:sp.hi:sp.hi]
			}
		}
	}
	switch {
	case len(sc.samples) > 0:
		obs.Samples = sc.samples
	case samplesArray:
		obs.Samples = []pcp.WireSample{}
	}
	return obs, nil
}

// samples reads the samples array, appending to the scratch slabs.
func (d *jsonDecoder) samples() error {
	if d.ws() != '[' {
		return d.errorf("samples: expected array")
	}
	d.off++
	if d.ws() == ']' {
		d.off++
		return nil
	}
	for {
		if err := d.sample(); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.off++
		case ']':
			d.off++
			return nil
		default:
			return d.errorf("samples: expected ',' or ']'")
		}
	}
}

// sample reads one sample object (null is an all-zero sample).
func (d *jsonDecoder) sample() error {
	sc := d.sc
	i := len(sc.samples)
	sc.samples = append(sc.samples, pcp.WireSample{})
	sc.spans = append(sc.spans, valSpan{lo: -1})
	if d.null() {
		return nil
	}
	if d.ws() != '{' {
		return d.errorf("sample %d: expected object", i)
	}
	d.off++
	s := &sc.samples[i]
	seen := 0
	for first := true; ; first = false {
		key, ok, err := d.key(first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch string(key) {
		case "instance":
			if err = d.claim(&seen, fieldInstance, key); err == nil {
				s.Instance, err = d.str("instance")
			}
		case "app":
			if err = d.claim(&seen, fieldApp, key); err == nil {
				s.App, err = d.str("app")
			}
		case "service":
			if err = d.claim(&seen, fieldService, key); err == nil {
				s.Service, err = d.str("service")
			}
		case "values":
			if err = d.claim(&seen, fieldValues, key); err == nil && !d.null() {
				err = d.values(i)
			}
		default:
			err = d.errorf("sample %d: unknown field %q", i, key)
		}
		if err != nil {
			return err
		}
	}
}

// values reads sample i's value array onto the value slab (null elements
// are zeros, as encoding/json leaves them).
func (d *jsonDecoder) values(i int) error {
	sc := d.sc
	if d.ws() != '[' {
		return d.errorf("sample %d values: expected array", i)
	}
	d.off++
	lo := len(sc.vals)
	if d.ws() == ']' {
		d.off++
		sc.spans[i] = valSpan{lo, lo}
		return nil
	}
	for {
		if d.null() {
			sc.vals = append(sc.vals, 0)
		} else {
			n, err := d.number()
			if err != nil {
				return err
			}
			v, ok := n.float()
			if !ok {
				return d.errorf("sample %d values: number %s is out of float64 range", i, n.raw)
			}
			sc.vals = append(sc.vals, v)
		}
		switch d.ws() {
		case ',':
			d.off++
		case ']':
			d.off++
			sc.spans[i] = valSpan{lo, len(sc.vals)}
			return nil
		default:
			return d.errorf("sample %d values: expected ',' or ']'", i)
		}
	}
}
