package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"monitorless/internal/pcp"
)

// jsonBody encodes n samples of the shared Table 1 rows the way node
// agents send them: encoding/json's field order, no app, service or label.
func jsonBody(tb testing.TB, n int) []byte {
	tb.Helper()
	m, _ := sharedTestModel(tb)
	rows := rawRows(tb)
	obs := pcp.WireObservation{T: 17, SchemaHash: m.RawSchema.Hash()}
	for i := 0; i < n; i++ {
		obs.Samples = append(obs.Samples, pcp.WireSample{
			Instance: fmt.Sprintf("shop/web/%d", i),
			Values:   rows[(7*i)%len(rows)],
		})
	}
	b, err := json.Marshal(obs)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// syntheticBody is an agent-shaped body that needs no trained model: n
// samples of width values spanning the magnitudes simulator rows carry
// (zeros, small integers, rates, utilizations, byte counters).
func syntheticBody(tb testing.TB, n, width int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	obs := pcp.WireObservation{T: 17, SchemaHash: strings.Repeat("ab", 32)}
	for i := 0; i < n; i++ {
		vals := make([]float64, width)
		for j := range vals {
			switch j % 4 {
			case 0:
			case 1:
				vals[j] = float64(rng.Intn(64))
			default:
				vals[j] = rng.Float64() * math.Pow(10, float64(rng.Intn(13)-3))
			}
		}
		obs.Samples = append(obs.Samples, pcp.WireSample{Instance: fmt.Sprintf("shop/web/%d", i), Values: vals})
	}
	b, err := json.Marshal(obs)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// referenceDecode is the decode handleIngest's JSON branch ran before
// DecodeJSONScratch replaced it.
func referenceDecode(b []byte) (pcp.WireObservation, error) {
	var obs pcp.WireObservation
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&obs)
	return obs, err
}

// jsonFieldNames are the exact keys of pcp.WireObservation and
// pcp.WireSample.
var jsonFieldNames = map[string]bool{
	"t": true, "schema_hash": true, "samples": true,
	"instance": true, "app": true, "service": true, "values": true,
}

// strictJSON reports whether b is one JSON value whose object keys are
// exact field names, unique per object, with nothing but whitespace after
// it — the inputs on which DecodeJSONScratch must accept whatever the
// reference accepts.
func strictJSON(b []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(b))
	type level struct {
		object  bool
		wantKey bool
		keys    map[string]bool
	}
	var stack []*level
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := (*level)(nil)
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.object && top.wantKey {
			if d, ok := tok.(json.Delim); ok && d == '}' {
				stack = stack[:len(stack)-1]
			} else {
				k := tok.(string)
				if !jsonFieldNames[k] || top.keys[k] {
					return false
				}
				top.keys[k] = true
				top.wantKey = false
				continue
			}
		} else if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{':
				stack = append(stack, &level{object: true, wantKey: true, keys: map[string]bool{}})
				continue
			case '[':
				stack = append(stack, &level{})
				continue
			default:
				stack = stack[:len(stack)-1]
			}
		}
		// A value just ended: its parent object wants a key next.
		if len(stack) == 0 {
			_, err := dec.Token()
			return err == io.EOF
		}
		if p := stack[len(stack)-1]; p.object {
			p.wantKey = true
		}
	}
}

// jsonObsEqual is reflect.DeepEqual plus bitwise value equality, which
// DeepEqual's == cannot see (-0 == 0).
func jsonObsEqual(a, b pcp.WireObservation) bool {
	return reflect.DeepEqual(a, b) && wireObsBitEqual(a, b)
}

// jsonSeeds is the fuzz seed corpus: agent-shaped bodies, every body
// TestHTTPRejectsBadRequests posts, nulls, escapes and the number
// grammar's edges.
func jsonSeeds(tb testing.TB) []string {
	seeds := []string{
		string(syntheticBody(tb, 2, 32)),
		// TestHTTPRejectsBadRequests.
		`{not json`,
		`{"t":0,"samples":[]}`,
		`{"t":0,"unknown_field":1,"samples":[{"instance":"a/x/0","values":[1]}]}`,
		`{"t":0,"schema_hash":"deadbeef","samples":[{"instance":"a/x/0","values":[1]}]}`,
		`{"t":0,"samples":[{"instance":"a/x/0","values":[1,2,3]}]}`,
		`{"t":0,"samples":[{"instance":"a/x/0","values":[1]},{"instance":"a/x/0","values":[1]}]}`,
		`{"t":0,"samples":[{"instance":"a/x/0","values":[1],"label":1}]}`,
		// App and service, nulls.
		`{"t":3,"samples":[{"instance":"a/x/0","app":"a","service":"x","values":[1,2]},{"instance":"a/x/1","values":[0.5,-2]}]}`,
		`{"t":null,"schema_hash":null,"samples":[{"instance":"a/x/0","app":null,"service":null,"values":[1,null,3]},null]}`,
		`{"samples":null}`,
		`{"samples":[{"instance":"a/x/0","values":null}]}`,
		`{"samples":[{"instance":"a/x/0","values":[]}]}`,
		`null`,
		` {"t" : 1 ,	"samples" : [ ] } ` + "\n",
		// Escaped and non-ASCII IDs, escaped keys.
		`{"t":1,"samples":[{"instance":"a\/x\u002f0","values":[1]}]}`,
		`{"t":1,"samples":[{"instance":"caf\u00e9/x/0","values":[1]},{"instance":"café/\"q\"/1","values":[2]}]}`,
		`{"t":1,"samples":[{"instance":"a\ud800/x/0","values":[1]}]}`,
		"{\"t\":1,\"samples\":[{\"instance\":\"a\xff/x/0\",\"values\":[1]}]}",
		"{\"t\":1,\"samples\":[{\"instance\":\"a\x01/x/0\",\"values\":[1]}]}",
		`{"\u0074":1,"samples":[{"instance":"a/x/0","values":[1]}]}`,
		// Number grammar and range.
		`{"t":1,"samples":[{"instance":"a/x/0","values":[1e400]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[-0,-0.0,0e0,1E+2,1e-400,4.9e-324,1.7976931348623157e308]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[01]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[1.]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[.5]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[NaN]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[-]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[0.1234567890123456789e-5,123456789012345678901234567890]}]}`,
		// The exact fast path's edges: 2^53 and its successor, ±22, more
		// than 19 significant digits, leading and trailing zeros.
		`{"t":1,"samples":[{"instance":"a/x/0","values":[9007199254740992,9007199254740993,-9007199254740993e-3,4503599627370497e-22,1e22,1e23,9e-22,1e-23]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[123456789012345678e-5,12345678901234567890,1234567890123456789012,1.0000000000000000000000001,0.00000000000000000000000012345,10000000000000000000000000,1.2300000000000000000000]}]}`,
		`{"t":1.5,"samples":[]}`,
		`{"t":9223372036854775808,"samples":[]}`,
		`{"t":-9223372036854775808,"samples":[]}`,
		// Type mismatches.
		`{"t":"1","samples":[]}`,
		`{"t":1,"samples":{}}`,
		`{"t":1,"samples":[{"instance":5,"values":[1]}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[true]}]}`,
		// A field the wire does not carry, in any form.
		`{"t":1,"samples":[{"instance":"a/x/0","values":[1],"label":null}]}`,
		`{"t":1,"samples":[{"instance":"a/x/0","values":[1],"label":1e0}]}`,
		`[]`,
		// The three tightenings, and trailing garbage.
		`{"T":1,"samples":[]}`,
		`{"t":1,"t":2,"samples":[]}`,
		`{"t":1,"samples":[]}x`,
		`{"t":1,"samples":[]}{"t":2}`,
		"{\"t\":1,\"samples\":[]}\x00",
		`{"t":1,"samples":[]`,
		``,
	}
	return seeds
}

// FuzzDecodeJSONVsReference holds DecodeJSONScratch to json.Decoder with
// DisallowUnknownFields, the decoder it replaced: whatever it accepts the
// reference accepts with the same observation, value bits included, and
// it has exact, unique keys and nothing after the value; and whatever the
// reference accepts with exact, unique keys and nothing after the value,
// it accepts too. The scratch is reused across inputs
// and dirtied first, so stale slab contents would show.
func FuzzDecodeJSONVsReference(f *testing.F) {
	for _, s := range jsonSeeds(f) {
		f.Add([]byte(s))
	}
	dirty := []byte(`{"t":9,"schema_hash":"x","samples":[{"instance":"d/d/0","app":"d","service":"d","values":[9,9,9,9]}]}`)
	var sc WireScratch
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := DecodeJSONScratch(dirty, &sc); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeJSONScratch(b, &sc)
		want, refErr := referenceDecode(b)
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted what the reference rejects (%v): %q", refErr, b)
			}
			if !jsonObsEqual(got, want) {
				t.Fatalf("decode differs from the reference on %q:\n got %#v\nwant %#v", b, got, want)
			}
			if !strictJSON(b) {
				t.Fatalf("accepted a body with a folded, repeated or unknown key or trailing data: %q", b)
			}
			return
		}
		if refErr == nil && strictJSON(b) {
			t.Fatalf("rejected a strict body the reference accepts: %v: %q", err, b)
		}
	})
}

// TestDecodeJSONTightenings pins the three deliberate departures from
// json.Decoder: each body below decodes under the reference and is a 400
// on /ingest.
func TestDecodeJSONTightenings(t *testing.T) {
	if !strictJSON(jsonBody(t, 2)) {
		t.Fatal("strictJSON rejects an agent body, so the fuzz test's second property is vacuous")
	}
	svc := newTestService(t, 1, 1)
	srv := NewServer(svc)
	for name, body := range map[string]string{
		"case-folded key": `{"T":1,"samples":[{"Instance":"a/x/0","values":[1]}]}`,
		"duplicate key":   `{"t":1,"samples":[{"instance":"a/x/0","instance":"a/x/1","values":[1]}]}`,
		"trailing data":   `{"t":1,"samples":[{"instance":"a/x/0","values":[1]}]} {}`,
		"trailing NUL":    "{\"t\":1,\"samples\":[{\"instance\":\"a/x/0\",\"values\":[1]}]}\x00",
	} {
		if _, err := referenceDecode([]byte(body)); err != nil {
			t.Fatalf("%s: the reference rejects it too (%v); not a tightening", name, err)
		}
		if strictJSON([]byte(body)) {
			t.Fatalf("%s: strictJSON admits it, so the fuzz test would demand it decode", name)
		}
		if _, err := DecodeJSONScratch([]byte(body), nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: /ingest answered %d, want 400", name, rec.Code)
		}
	}
}

// TestDecodeJSONChunkedBody pins readBody's unknown-length path: a body
// sent without Content-Length still decodes.
func TestDecodeJSONChunkedBody(t *testing.T) {
	svc := newTestService(t, 1, 1)
	srv := NewServer(svc)
	body := jsonBody(t, 3)
	req := httptest.NewRequest(http.MethodPost, "/ingest?quiet=1", io.MultiReader(bytes.NewReader(body[:100]), bytes.NewReader(body[100:])))
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("chunked JSON ingest: %d %s", rec.Code, rec.Body)
	}
	if st := svc.Stats(); st.Instances != 3 {
		t.Fatalf("instances = %d, want 3", st.Instances)
	}
}

// TestDecodeJSONErrors checks that rejections say where they happened.
func TestDecodeJSONErrors(t *testing.T) {
	_, err := DecodeJSONScratch([]byte(`{"t":1,"samples":[{"instance":"a/x/0","values":[1,.5]}]}`), nil)
	if err == nil || !strings.Contains(err.Error(), "offset 50") {
		t.Fatalf("err = %v, want one naming offset 50", err)
	}
	var se *json.SyntaxError
	if errors.As(err, &se) {
		t.Fatal("grammar errors are the decoder's own, not encoding/json's")
	}
	// Samples carry no label: the key is unknown, null or not.
	for _, v := range []string{"1", "null"} {
		_, err = DecodeJSONScratch([]byte(`{"t":1,"samples":[{"instance":"a/x/0","values":[1],"label":`+v+`}]}`), nil)
		if err == nil || !strings.Contains(err.Error(), `unknown field "label"`) {
			t.Fatalf("label %s: err = %v, want unknown field \"label\"", v, err)
		}
	}
}

// TestDecodeJSONNumbersMatchParseFloat draws number tokens around the
// exact fast path's limits — 1 to 24 significant digits, leading and
// trailing zeros, decimal exponents to ±30 — and checks every decoded
// value is bit-identical to strconv.ParseFloat's.
func TestDecodeJSONNumbersMatchParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var body []byte
	var toks []string
	for len(toks) < 20000 {
		var tok []byte
		if rng.Intn(2) == 0 {
			tok = append(tok, '-')
		}
		digits := func(n int) {
			for k := 0; k < n; k++ {
				tok = append(tok, byte('0'+rng.Intn(10)))
			}
		}
		switch rng.Intn(3) {
		case 0:
			tok = append(tok, '0')
		default:
			tok = append(tok, byte('1'+rng.Intn(9)))
			digits(rng.Intn(20))
		}
		if rng.Intn(3) > 0 {
			tok = append(tok, '.')
			tok = append(tok, strings.Repeat("0", rng.Intn(4)*rng.Intn(2))...)
			digits(1 + rng.Intn(20))
		}
		if rng.Intn(2) == 0 {
			tok = append(tok, "eE"[rng.Intn(2)])
			tok = append(tok, []string{"", "+", "-"}[rng.Intn(3)]...)
			tok = strconv.AppendInt(tok, int64(rng.Intn(31)), 10)
		}
		if _, err := strconv.ParseFloat(string(tok), 64); err != nil {
			continue
		}
		toks = append(toks, string(tok))
	}
	body = append(body, `{"samples":[{"instance":"a/x/0","values":[`...)
	body = append(body, strings.Join(toks, ",")...)
	body = append(body, "]}]}"...)
	obs, err := DecodeJSONScratch(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range obs.Samples[0].Values {
		want, _ := strconv.ParseFloat(toks[k], 64)
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s decoded as %v (%#x), want %v (%#x)", toks[k], v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
}
