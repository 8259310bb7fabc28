package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/frame"
	"monitorless/internal/lifecycle"
)

// maxIngestBytes bounds one /ingest request body (a binary batch frame
// carrying ~8k instances at catalog width is ~17 MB).
const maxIngestBytes = 64 << 20

// bodyPool recycles request-body buffers across /ingest requests. Both
// decoders copy identifiers and values out of the input, so the buffer can
// be returned as soon as decoding finishes.
var bodyPool sync.Pool

// wireScratchPool recycles decode slabs (sample headers + value matrix)
// across /ingest requests; the service copies everything it keeps out of
// the observation before the handler returns the scratch.
var wireScratchPool sync.Pool

// readBody reads a request body into the pooled buffer *bp, sized from
// Content-Length (io.ReadAll would grow and re-copy a multi-megabyte frame
// several times per request); a body of undeclared length is read whole
// into fresh memory. The body may alias *bp until the buffer is put back.
func readBody(r *http.Request, bp *[]byte) ([]byte, error) {
	n := r.ContentLength
	if n <= 0 || n > maxIngestBytes {
		return io.ReadAll(r.Body)
	}
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	body := (*bp)[:n]
	_, err := io.ReadFull(r.Body, body)
	return body, err
}

// Server is the HTTP front of a Service:
//
//	POST   /ingest            one WireObservation → refreshed predictions
//	GET    /predict           all instance predictions
//	GET    /predict?instance= one instance's prediction
//	GET    /apps              per-application OR + debounced decisions
//	DELETE /instances?id=     drop an instance's state (scale-in)
//	GET    /schema            raw metric names + schema hash
//	GET    /model             active model: generation, fingerprint, drift
//	                          scores, swap history
//	POST   /model             hot-swap a model bundle (body = bundle bytes)
//	GET    /healthz           liveness + service stats
//	GET    /metrics           Prometheus text exposition
type Server struct {
	svc *Service
	mux *http.ServeMux
}

// NewServer wraps a service with its HTTP API.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.route("/ingest", s.handleIngest)
	s.route("/predict", s.handlePredict)
	s.route("/apps", s.handleApps)
	s.route("/instances", s.handleInstances)
	s.route("/schema", s.handleSchema)
	s.route("/model", s.handleModel)
	s.route("/healthz", s.handleHealthz)
	s.route("/metrics", s.handleMetrics)
	return s
}

// route registers a handler and has it name its pattern to ServeHTTP's
// request metrics.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = pattern
		}
		h(w, r)
	})
}

// statusWriter captures the response code and matched route for request
// metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	route string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches and instruments every request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Label by the matched route, never the raw path: every distinct
	// unknown path would otherwise add series that are never freed.
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, route: "other"}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	reg := s.svc.Registry()
	reg.Counter("monitorless_http_requests_total", "HTTP requests by route and status code.",
		Labels{"path": sw.route, "code": strconv.Itoa(sw.code)}).Inc()
	reg.Histogram("monitorless_http_request_seconds", "HTTP request latency by route.",
		nil, Labels{"path": sw.route}).Observe(time.Since(start).Seconds())
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// isWireContentType reports whether a Content-Type header selects the
// binary batch frame encoding (parameters such as charset are ignored).
func isWireContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.ToLower(strings.TrimSpace(ct))
	return ct == WireContentType || ct == "application/octet-stream"
}

// handleIngest accepts one observation per POST, negotiated by
// Content-Type: the binary batch frame (WireContentType or
// application/octet-stream) or the JSON compat encoding (anything else).
// Both read the body into a pooled buffer and decode it into pooled
// WireScratch slabs; both admit the same observations (finite values
// only) and flow through the same Service.Ingest, so the two encodings
// are behaviourally identical. ?quiet=1 suppresses the per-instance
// prediction echo in the response — the high-throughput agent path.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	decode := DecodeJSONScratch
	if isWireContentType(r.Header.Get("Content-Type")) {
		decode = DecodeWireScratch
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBytes)
	bp, _ := bodyPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	body, err := readBody(r, bp)
	if err != nil {
		bodyPool.Put(bp)
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	scratch, _ := wireScratchPool.Get().(*WireScratch)
	if scratch == nil {
		scratch = &WireScratch{}
	}
	// The observation aliases the scratch slabs until ingest returns;
	// everything the service keeps (strings, feature state) is copied out
	// by then, so the scratch goes back to the pool right after.
	defer wireScratchPool.Put(scratch)
	obs, err := decode(body, scratch)
	bodyPool.Put(bp)
	if err != nil {
		s.svc.mBadRequests.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	quiet := r.URL.Query().Get("quiet") == "1"
	var resp *IngestResponse
	if quiet {
		resp, err = s.svc.IngestQuiet(obs)
	} else {
		resp, err = s.svc.Ingest(obs)
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrSchemaMismatch) {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
	s.svc.PutResponse(resp)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if id := r.URL.Query().Get("instance"); id != "" {
		pred, ok := s.svc.InstancePrediction(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown instance %q", id)
			return
		}
		writeJSON(w, http.StatusOK, pred)
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Predictions())
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Apps())
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "DELETE required")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "id query parameter required")
		return
	}
	if !s.svc.Forget(id) {
		writeError(w, http.StatusNotFound, "unknown instance %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"forgotten": id})
}

// Schema describes the raw-metric layout ingest expects.
type Schema struct {
	SchemaHash string   `json:"schema_hash"`
	Metrics    []string `json:"metrics"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, Schema{
		SchemaHash: s.svc.SchemaHash(),
		Metrics:    s.svc.RawNames(),
	})
}

// ModelInfo is the GET /model response: the active model's identity and
// the drift monitor's view of it.
type ModelInfo struct {
	Gen           uint64  `json:"gen"`
	BundleVersion int     `json:"bundle_version"`
	SchemaHash    string  `json:"schema_hash"`
	Threshold     float64 `json:"threshold"`
	Trees         int     `json:"trees"`
	TrainSamples  int     `json:"train_samples"`
	Legacy        bool    `json:"legacy"`
	// Fingerprint summarizes the training distribution (per-column
	// moments; quantile internals are not serialized). Nil for legacy
	// models.
	Fingerprint *frame.Fingerprint `json:"fingerprint,omitempty"`
	// WatchedCols is how many of the fingerprint's columns drift
	// observation covers — what the drift scores and
	// monitorless_drift_psi_max gauges range over: the raw inputs the
	// pipeline reads, or every column when that is unknown.
	WatchedCols int `json:"watched_cols"`
	// Drift lists the latest completed-window drift scores per app.
	Drift []lifecycle.AppDrift `json:"drift,omitempty"`
	// Swaps is the retained hot-swap history, oldest first.
	Swaps []SwapEvent `json:"swaps,omitempty"`
}

// maxBundleBytes bounds one POST /model body (a 250-tree bundle with
// calibration is well under this).
const maxBundleBytes = 256 << 20

// handleModel serves the model identity (GET) and the operator hot-swap
// entry (POST: body = model bundle bytes as written by cmd/train).
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.svc.HarvestDrift() // scores reflect traffic up to this request
		m := s.svc.Model()
		st := s.svc.Stats()
		info := ModelInfo{
			Gen:           st.ModelGen,
			BundleVersion: st.BundleVersion,
			SchemaHash:    st.SchemaHash,
			Threshold:     st.Threshold,
			Trees:         st.ModelTrees,
			TrainSamples:  m.TrainSamples,
			Legacy:        st.LegacyBundle,
			Fingerprint:   m.Fingerprint,
			Swaps:         s.svc.SwapHistory(),
		}
		if m.Fingerprint != nil {
			info.WatchedCols = len(m.Fingerprint.Watched())
		}
		if d := s.svc.Drift(); d != nil {
			info.Drift = d.Scores()
		}
		writeJSON(w, http.StatusOK, info)
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxBundleBytes)
		b, err := core.LoadBundle(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ev, err := s.svc.Swap(b.Model, b.Version)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrSchemaMismatch) {
				code = http.StatusConflict
			}
			writeError(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, ev)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Stats
	}{Status: "ok", Stats: s.svc.Stats()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Drain shard drift cells first, so the drift gauges and window
	// counter reflect traffic up to this scrape.
	s.svc.HarvestDrift()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.svc.Registry().WriteText(w)
}
