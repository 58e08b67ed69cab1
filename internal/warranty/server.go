package warranty

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"decos/internal/telemetry"
	"decos/internal/trace"
)

// ServerOptions tunes the ingestion HTTP front end. Zero values select
// the defaults.
type ServerOptions struct {
	// MaxInflight bounds concurrently served ingest requests — the
	// ingest queue. A request arriving with the queue full is refused
	// with 429 so backpressure propagates to the uplink instead of
	// growing server memory. Default 64.
	MaxInflight int
	// MaxLineBytes bounds one NDJSON line per connection
	// (trace.DefaultMaxLineBytes when 0).
	MaxLineBytes int
	// MaxBodyBytes bounds one ingest request body (default 256 MiB). A
	// body declared longer is refused with 413 unread; a streamed body
	// that runs past it gets 413 once the bound trips, reporting what was
	// ingested before it.
	MaxBodyBytes int64
	// Threshold is the systematic-fault vehicle share for summaries
	// (DefaultThreshold when 0); overridable per request with
	// ?threshold=.
	Threshold float64
	// RetryAfter is the hint sent with every 429 rejection, in whole
	// seconds (Retry-After header), so clients back off on the server's
	// schedule instead of guessing. 0 selects the 1 s default; negative
	// sends an immediate-retry hint of 0 s (load tests).
	RetryAfter int
	// Telemetry is the metrics registry the server publishes into and
	// serves on GET /v1/metrics. Nil creates a private registry: unlike
	// the simulator hot path, the HTTP front end always observes itself.
	Telemetry *telemetry.Registry
}

// Server exposes a Collector over HTTP (stdlib only):
//
//	POST /v1/ingest        trace events, NDJSON or binary by Content-Type (415 otherwise);
//	                       429 + Retry-After when the queue is full, 413 past MaxBodyBytes
//	GET  /v1/fleet/summary fleet aggregate (?threshold= optional)
//	GET  /v1/fru/{id}      per-FRU drill-down (id URL-escaped)
//	GET  /v1/healthz       liveness + ingestion counters
//	GET  /v1/metrics       telemetry snapshot (?format=expvar for the flat view)
//
// The healthz ingestion counters are read from the same telemetry
// registry the metrics endpoint serves, so liveness and metrics can never
// disagree about how much the server has ingested or refused.
type Server struct {
	c        *Collector
	opts     ServerOptions
	sem      chan struct{}
	inflight atomic.Int64
	mux      *http.ServeMux

	retryAfter string

	metrics        *telemetry.Registry
	ingestRequests *telemetry.Counter
	ingestRejected *telemetry.Counter
	ingestEvents   *telemetry.Counter
	ingestCorrupt  *telemetry.Counter
	ingestBinary   *telemetry.Counter
	ingestUnsupp   *telemetry.Counter
	ingestNS       *telemetry.Histogram
}

// NewServer wraps a collector with the HTTP API.
func NewServer(c *Collector, opts ServerOptions) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 64
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 256 << 20
	}
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultThreshold
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.New()
	}
	switch {
	case opts.RetryAfter == 0:
		opts.RetryAfter = 1
	case opts.RetryAfter < 0:
		opts.RetryAfter = 0
	}
	s := &Server{
		c:          c,
		opts:       opts,
		sem:        make(chan struct{}, opts.MaxInflight),
		mux:        http.NewServeMux(),
		retryAfter: strconv.Itoa(opts.RetryAfter),

		metrics:        opts.Telemetry,
		ingestRequests: opts.Telemetry.Counter("ingest.requests"),
		ingestRejected: opts.Telemetry.Counter("ingest.rejected"),
		ingestEvents:   opts.Telemetry.Counter("ingest.events"),
		ingestCorrupt:  opts.Telemetry.Counter("ingest.corrupt_lines"),
		ingestBinary:   opts.Telemetry.Counter("ingest.binary_requests"),
		ingestUnsupp:   opts.Telemetry.Counter("ingest.unsupported_media"),
		ingestNS:       opts.Telemetry.Histogram("ingest.request_ns"),
	}
	// Store-derived values are computed at snapshot time: the collector's
	// own atomics (and per-shard locks) are the one source of truth.
	reg := opts.Telemetry
	reg.GaugeFunc("fleet.vehicles", func() int64 { return int64(c.Vehicles()) })
	reg.GaugeFunc("fleet.events", c.Events)
	reg.GaugeFunc("fleet.frames", c.Frames)
	reg.GaugeFunc("fleet.corrupt_lines", c.Corrupt)
	reg.GaugeFunc("fleet.malformed_events", c.Malformed)
	reg.GaugeFunc("warranty.shard_depth_max", func() int64 { max, _ := c.ShardDepth(); return int64(max) })
	reg.GaugeFunc("warranty.shard_depth_min", func() int64 { _, min := c.ShardDepth(); return int64(min) })
	reg.GaugeFunc("ingest.inflight", s.inflight.Load)

	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/fleet/summary", s.handleSummary)
	s.mux.HandleFunc("GET /v1/fru/{id...}", s.handleFRU)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.Handle("GET /v1/metrics", opts.Telemetry.Handler())
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// ingestMediaType classifies a request Content-Type for /v1/ingest:
// the binary trace media type, the NDJSON family (the historical default
// — an absent Content-Type still means NDJSON for interop with every
// pre-binary producer), or unsupported.
func ingestMediaType(ct string) (binary, ok bool) {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(strings.ToLower(ct)) {
	case trace.ContentTypeBinary:
		return true, true
	case "", trace.ContentTypeNDJSON, "application/json", "text/plain":
		return false, true
	}
	return false, false
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingestRequests.Inc()
	binary, ok := ingestMediaType(r.Header.Get("Content-Type"))
	if !ok {
		s.ingestUnsupp.Inc()
		w.Header().Set("Accept-Post", trace.ContentTypeBinary+", "+trace.ContentTypeNDJSON)
		writeJSON(w, http.StatusUnsupportedMediaType, errorBody{
			Error: "unsupported Content-Type; send " + trace.ContentTypeBinary + " or " + trace.ContentTypeNDJSON,
		})
		return
	}
	if binary {
		s.ingestBinary.Inc()
	}
	if r.ContentLength > s.opts.MaxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, ingestResult{Error: tooLarge})
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.ingestRejected.Inc()
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "ingest queue full"})
		return
	}
	s.inflight.Add(1)
	start := time.Now()
	defer func() {
		s.ingestNS.Observe(time.Since(start).Nanoseconds())
		s.inflight.Add(-1)
		<-s.sem
	}()

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	events, corrupt, err := s.c.IngestStream(body, s.opts.MaxLineBytes)
	s.ingestEvents.Add(int64(events))
	s.ingestCorrupt.Add(int64(corrupt))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, ingestResult{Ingested: events, Corrupt: corrupt})
	case errors.As(err, new(*http.MaxBytesError)):
		// The events before the bound are already ingested: say how many,
		// so a client does not resend them.
		writeJSON(w, http.StatusRequestEntityTooLarge, ingestResult{tooLarge, events, corrupt})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

const tooLarge = "request body too large"

// ingestResult is the body of a 200 or 413 ingest answer: the events the
// request added to the collector and the records it skipped as corrupt.
type ingestResult struct {
	Error    string `json:"error,omitempty"`
	Ingested int    `json:"ingested"`
	Corrupt  int    `json:"corrupt"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	threshold := s.opts.Threshold
	if t := r.URL.Query().Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v <= 0 || v > 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "threshold must be in (0,1]"})
			return
		}
		threshold = v
	}
	writeJSON(w, http.StatusOK, s.c.Summary(threshold))
}

func (s *Server) handleFRU(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if unescaped, err := url.PathUnescape(id); err == nil {
		id = unescaped
	}
	d, ok := s.c.FRU(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown FRU " + id})
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status         string `json:"status"`
		Vehicles       int    `json:"vehicles"`
		Events         int64  `json:"events"`
		Corrupt        int64  `json:"corrupt_lines"`
		Malformed      int64  `json:"malformed_events"`
		Inflight       int64  `json:"inflight_ingests"`
		IngestRequests int64  `json:"ingest_requests"`
		IngestRejected int64  `json:"ingest_rejected"`
	}{"ok", s.c.Vehicles(), s.c.Events(), s.c.Corrupt(), s.c.Malformed(),
		s.inflight.Load(), s.ingestRequests.Value(), s.ingestRejected.Value()},
	)
}
