package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"monitorless/internal/pcp"
)

// benchObservation synthesizes one tick with n instances of realistic
// vector width.
func benchObservation(b *testing.B, svc *Service, tick, n int) pcp.WireObservation {
	b.Helper()
	width := len(svc.RawNames())
	w := pcp.WireObservation{T: tick}
	for i := 0; i < n; i++ {
		vec := make([]float64, width)
		for j := range vec {
			vec[j] = float64((i+1)*(j%13)) * 0.07
		}
		w.Samples = append(w.Samples, pcp.WireSample{Instance: instanceID(i), Values: vec})
	}
	return w
}

// BenchmarkServiceIngest measures the in-process ingest path: streaming
// feature step + forest vote for 8 instances per observation.
func BenchmarkServiceIngest(b *testing.B) {
	m, _ := sharedTestModel(b)
	svc, err := New(Config{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b, svc, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.T = i
		if _, err := svc.Ingest(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkHTTPIngest measures the full round trip: JSON encode, HTTP
// POST over loopback, ingest, JSON response.
func BenchmarkHTTPIngest(b *testing.B) {
	m, _ := sharedTestModel(b)
	svc, err := New(Config{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	obs := benchObservation(b, svc, 0, 8)
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.T = i
		body, err := json.Marshal(obs)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkDecodeJSON is the JSON ingest decode on an agent-sized body
// (16 samples of Table 1 rows at catalog width): encoding_json is the
// reflective json.Decoder the handler used to run, scratch is
// DecodeJSONScratch into reused slabs.
func BenchmarkDecodeJSON(b *testing.B) {
	const samples = 16
	body := jsonBody(b, samples)
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := referenceDecode(body); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
	})
	b.Run("scratch", func(b *testing.B) {
		var sc WireScratch
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeJSONScratch(body, &sc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
	})
}
