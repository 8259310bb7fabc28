package serving

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"monitorless/internal/pcp"
)

func testWireObservation() pcp.WireObservation {
	return pcp.WireObservation{
		T:          1234,
		SchemaHash: strings.Repeat("ab", 32),
		Samples: []pcp.WireSample{
			{Instance: "shop/web/0", App: "shop", Service: "web", Values: []float64{1, 2.5, -3}},
			{Instance: "shop/web/1", Values: []float64{0, math.MaxFloat64, math.SmallestNonzeroFloat64}},
			{Instance: "db/pg/0", App: "db", Values: []float64{-0.0, 1e300, 42}},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	obs := testWireObservation()
	b, err := AppendWire(nil, obs)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	got, err := DecodeWire(b)
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if !reflect.DeepEqual(got, obs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, obs)
	}

	negT := pcp.WireObservation{T: -7, Samples: []pcp.WireSample{{Instance: "a", Values: []float64{1}}}}
	b, err = AppendWire(nil, negT)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	got, err = DecodeWire(b)
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if got.T != -7 {
		t.Fatalf("negative T not preserved: %d", got.T)
	}
	if got.SchemaHash != "" {
		t.Fatalf("unset schema hash decoded as %q", got.SchemaHash)
	}
}

// nonFiniteFrames encodes testWireObservation with one value replaced by
// NaN (with a payload), +Inf and -Inf — frames JSON cannot carry.
func nonFiniteFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for name, v := range map[string]float64{
		"NaN":  math.Float64frombits(0x7ff8_0000_dead_beef),
		"+Inf": math.Inf(1),
		"-Inf": math.Inf(-1),
	} {
		obs := testWireObservation()
		obs.Samples[2].Values[1] = v
		b, err := AppendWire(nil, obs)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestWireDecodeRejectsNonFinite pins that the binary frame admits only
// the finite values the JSON encoding can carry.
func TestWireDecodeRejectsNonFinite(t *testing.T) {
	for name, b := range nonFiniteFrames(t) {
		if _, err := DecodeWire(b); err == nil || !strings.Contains(err.Error(), "sample 2 value 1") {
			t.Errorf("%s: err = %v, want a rejection naming sample 2 value 1", name, err)
		}
	}
	// Every position is checked: each lane of the unrolled copy and the
	// tail after it.
	for i := 0; i < 9; i++ {
		obs := testWireObservation()
		obs.Samples[i/3].Values[i%3] = math.Inf(-1)
		b, err := AppendWire(nil, obs)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("sample %d value %d", i/3, i%3)
		if _, err := DecodeWire(b); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-Inf at %s: err = %v", want, err)
		}
	}
	// The largest finite magnitudes and the subnormals are not caught.
	obs := testWireObservation()
	obs.Samples[0].Values = []float64{-math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x7fef_ffff_ffff_ffff)}
	b, err := AppendWire(nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWire(b); err != nil {
		t.Fatalf("finite extremes rejected: %v", err)
	}
}

func TestWireAppendReusesBuffer(t *testing.T) {
	obs := testWireObservation()
	buf, err := AppendWire(nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	warm := buf
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		warm, err = AppendWire(warm[:0], obs)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendWire allocates %v times, want 0", allocs)
	}
}

func TestWireEncodeRejects(t *testing.T) {
	base := testWireObservation()
	cases := map[string]func() pcp.WireObservation{
		"no samples": func() pcp.WireObservation { return pcp.WireObservation{T: 1} },
		"empty instance ID": func() pcp.WireObservation {
			o := testWireObservation()
			o.Samples[1].Instance = ""
			return o
		},
		"ragged widths": func() pcp.WireObservation {
			o := testWireObservation()
			o.Samples[2].Values = []float64{1}
			return o
		},
		"zero width": func() pcp.WireObservation {
			o := testWireObservation()
			for i := range o.Samples {
				o.Samples[i].Values = nil
			}
			return o
		},
		"non-hex schema hash": func() pcp.WireObservation {
			o := testWireObservation()
			o.SchemaHash = "not-a-hash"
			return o
		},
		"short schema hash": func() pcp.WireObservation {
			o := testWireObservation()
			o.SchemaHash = "abcd"
			return o
		},
	}
	for name, mk := range cases {
		if _, err := AppendWire(nil, mk()); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := AppendWire(nil, base); err != nil {
		t.Fatalf("baseline observation rejected: %v", err)
	}
}

func TestWireDecodeRejects(t *testing.T) {
	valid, err := AppendWire(nil, testWireObservation())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": valid[:wireHeaderLen-1],
		"header only":      valid[:wireHeaderLen],
		"bad magic":        mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"unknown flags":    mutate(func(b []byte) []byte { b[5] = 1; return b }),
		"zero width":       mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[46:], 0); return b }),
		"huge width":       mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[46:], 1<<20); return b }),
		"zero count":       mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[50:], 0); return b }),
		// A count far beyond the body must be rejected by the byte-budget
		// check before it can size an allocation.
		"inflated count": mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[50:], 1<<22); return b }),
		"truncated body": valid[:len(valid)-1],
		"trailing junk":  append(append([]byte(nil), valid...), 0),
		"value bytes missing": mutate(func(b []byte) []byte {
			return b[:wireHeaderLen+len("shop/web/0")+len("shop")+len("web")+3]
		}),
	}
	for name, b := range cases {
		if _, err := DecodeWire(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzWireDecode is the decoder's safety net: arbitrary bytes must yield
// an error or a self-consistent observation — never a panic, and never an
// allocation larger than a small multiple of the input (the inflated-count
// guard). A successful decode must re-encode and decode to the same
// observation.
func FuzzWireDecode(f *testing.F) {
	valid, err := AppendWire(nil, testWireObservation())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:wireHeaderLen])
	f.Add(valid[:wireHeaderLen/2])
	f.Add([]byte{})
	wrongHash := append([]byte(nil), valid...)
	wrongHash[14] ^= 0xff
	f.Add(wrongHash)
	inflated := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(inflated[50:], 1<<22-1)
	f.Add(inflated)
	nf := nonFiniteFrames(f)
	f.Add(nf["NaN"])
	f.Add(nf["+Inf"])

	f.Fuzz(func(t *testing.T, b []byte) {
		obs, err := DecodeWire(b)
		if err != nil {
			return
		}
		// Structural invariants of a successful decode.
		if len(obs.Samples) == 0 {
			t.Fatal("decoded observation with no samples")
		}
		width := len(obs.Samples[0].Values)
		for i := range obs.Samples {
			if obs.Samples[i].Instance == "" {
				t.Fatalf("sample %d decoded with empty instance ID", i)
			}
			if len(obs.Samples[i].Values) != width {
				t.Fatalf("sample %d width %d != %d", i, len(obs.Samples[i].Values), width)
			}
			for j, v := range obs.Samples[i].Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("sample %d value %d decoded as %v", i, j, v)
				}
			}
		}
		// Round trip: re-encoding must succeed and decode identically.
		b2, err := AppendWire(nil, obs)
		if err != nil {
			t.Fatalf("re-encode of decoded observation failed: %v", err)
		}
		obs2, err := DecodeWire(b2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !wireObsBitEqual(obs, obs2) {
			t.Fatal("decode → encode → decode not stable")
		}
	})
}

// wireObsBitEqual compares observations with bitwise float equality, so
// NaN payloads count as equal to themselves (DeepEqual's == would not).
func wireObsBitEqual(a, b pcp.WireObservation) bool {
	if a.T != b.T || a.SchemaHash != b.SchemaHash || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		as, bs := &a.Samples[i], &b.Samples[i]
		if as.Instance != bs.Instance || as.App != bs.App || as.Service != bs.Service ||
			len(as.Values) != len(bs.Values) {
			return false
		}
		for j := range as.Values {
			if math.Float64bits(as.Values[j]) != math.Float64bits(bs.Values[j]) {
				return false
			}
		}
	}
	return true
}
