// Package server is the hardened HTTP facade over the QueryVis pipeline:
// JSON-over-HTTP endpoints with per-request deadlines, a concurrency-
// limiting semaphore that sheds load instead of queueing it, request- and
// response-size caps, a machine-readable error taxonomy (see errors.go),
// and panic containment — an internal invariant violation produces a 500
// with a structured body, never a dropped connection.
//
// Endpoints:
//
//	POST /v1/diagram   {"sql", "schema", "simplify", "format"} → rendered diagram
//	POST /v1/interpret {"sql", "schema", "simplify"}           → NL reading + TRC
//	GET  /v1/healthz                                           → liveness + load
//
// The server itself is only an http.Handler; listener lifecycle (and
// graceful shutdown draining in-flight requests) belongs to the caller —
// see cmd/queryvisd.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	queryvis "repro"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/quarantine"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// Config tunes the service's resource guards. Zero fields take the
// documented defaults.
type Config struct {
	// Limits bounds each query's resource use; the zero value means
	// DefaultLimits. Use Unlimited to disable bounds entirely.
	Limits queryvis.Limits
	// Unlimited disables per-query limits (Limits is ignored).
	Unlimited bool
	// RequestTimeout is the per-request pipeline deadline (default 5s).
	RequestTimeout time.Duration
	// MaxConcurrent bounds simultaneously served requests; excess load is
	// shed with 429 + Retry-After (default 64).
	MaxConcurrent int
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// AllowFaultInjection honors the X-Fault-Seed request header by
	// attaching a deterministic fault plan to the request context. For
	// chaos tests only — never enable it on a production listener. With a
	// Pool attached the plan's seed rides each job to its worker, and
	// X-Worker-Fault names a worker fault for the pool to act out, so
	// pipeline- and process-level faults compose.
	AllowFaultInjection bool

	// Pool, when non-nil, runs the pipeline in sacrificial child
	// processes (see internal/workerpool and Worker) instead of
	// in-process: a query that exhausts the stack or the heap kills a
	// worker, never this daemon. Everything else stays here: the envelope
	// guards (method, shedding, deadline, body cap), JSON decoding and
	// validation on every endpoint, the diagram cache (a hit never
	// reaches a worker), verdict counting, quarantine filing and the
	// reply. A worker runs only the pipeline, on the decoded request, and
	// returns a typed outcome.
	Pool *workerpool.Pool

	// CacheEntries, when positive, gives this server its own
	// request-keyed diagram cache (see internal/diagcache) bounded to this
	// many entries and to the diagcache default of 64 MiB of payload,
	// registered on this server's metrics registry — in either isolation
	// mode; a pool's workers never cache. The diagram endpoints serve
	// rendered results from it: only verified (or verify-off)
	// non-degraded results are inserted, fault-seeded requests bypass it,
	// and its keys carry this config's fingerprint. Zero leaves caching
	// off (the historical behavior).
	CacheEntries int
	// MaxBatchItems caps the items accepted by /v1/diagrams:batch
	// (default 64).
	MaxBatchItems int

	// DefaultVerify is the verification mode for requests that do not set
	// the "verify" field. The zero value is VerifyOff, preserving the
	// historical behavior.
	DefaultVerify queryvis.VerifyMode
	// Quarantine, when non-nil, persists inputs that fail verification or
	// trip panic containment to the on-disk corpus.
	Quarantine *quarantine.Store

	// Metrics is the telemetry registry backing /v1/metrics and the
	// healthz load numbers; nil creates a private one. Supply a registry
	// to share it across servers or read it from tests.
	Metrics *telemetry.Registry
	// DisableTelemetry turns off per-request instrumentation — request
	// IDs, tracing, histograms, route counters, request logging — and
	// removes /v1/metrics (404). Load gauges still run: healthz depends
	// on them.
	DisableTelemetry bool
	// Logger, when non-nil, receives one structured line per request and
	// the slow-query log. Nil disables request logging.
	Logger *slog.Logger
	// SlowQueryThreshold promotes requests at least this slow to the
	// slow-query log with their scrubbed SQL (0 disables).
	SlowQueryThreshold time.Duration
}

// WithDefaults returns the config with every zero field set to its
// documented default: the values New runs with.
func (c Config) WithDefaults() Config {
	if c.Limits == (queryvis.Limits{}) && !c.Unlimited {
		c.Limits = queryvis.DefaultLimits()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	return c
}

// Server is the http.Handler for the hardened service.
type Server struct {
	cfg     Config
	sem     chan struct{}
	mux     *http.ServeMux
	start   time.Time
	metrics *serverMetrics
	cache   *diagcache.Cache
	// config is the short hash of configFingerprint that every cache key
	// carries.
	config string
	// traces retains the last completed request traces for /v1/traces.
	// nil when telemetry is disabled — the ring is nil-safe, so the
	// untraced path pays nothing.
	traces *telemetry.TraceRing
	// runner runs the pipeline in-process; with a pool attached its
	// schemas still validate requests here.
	runner *runner
	// build is the X-Queryvis-Build header value, one slice shared by
	// every response so that stamping it allocates nothing; its
	// capacity of one makes any append copy it. Nil when the binary is
	// unknown (see buildIdentity).
	build []string
}

// New builds a Server from the config. The server it builds owns the
// instance's diagram cache whether or not a pool is attached: with one,
// every endpoint still decodes, validates and looks up here, and only
// the pipeline runs of cache misses reach a worker.
func New(cfg Config) *Server {
	cfg = cfg.WithDefaults()
	s := &Server{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		runner: newRunner(cfg),
	}
	fp := s.configFingerprint()
	sum := sha256.Sum256([]byte(fp))
	s.config = hex.EncodeToString(sum[:8])
	if b := buildIdentity(fp, cfg.DefaultVerify); b != "" {
		s.build = []string{b}
	}
	if !cfg.DisableTelemetry {
		s.traces = telemetry.NewTraceRing(0)
	}
	s.initMetrics(cfg.Metrics)
	if cfg.CacheEntries > 0 {
		s.cache = diagcache.New(diagcache.Config{
			MaxEntries: cfg.CacheEntries,
			Metrics:    s.metrics.reg,
		})
	}
	s.mux.HandleFunc("/v1/diagram", s.instrument("/v1/diagram", s.guarded(s.handleDiagram)))
	s.mux.HandleFunc("/v1/diagrams:batch", s.instrument("/v1/diagrams:batch", s.guarded(s.handleBatch)))
	s.mux.HandleFunc("/v1/interpret", s.instrument("/v1/interpret", s.guarded(s.handleInterpret)))
	s.mux.HandleFunc("/v1/healthz", s.instrument("/v1/healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/traces", s.handleTraces)
	return s
}

// ServeHTTP implements http.Handler. Every response, error or not,
// carries the instance's answer identity when it has one.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.build != nil {
		w.Header()[headerBuild] = s.build
	}
	s.mux.ServeHTTP(w, r)
}

// InFlight reports the number of requests currently inside the
// semaphore; it drains to zero once shutdown finishes.
func (s *Server) InFlight() int64 { return s.metrics.inFlight.Value() }

// retryAfterSeconds turns the configured retry hint into a header value
// with jitter: a uniform draw from [base, 2·base] seconds, so a
// synchronized burst of shed clients does not come back as a
// synchronized burst of retries.
func (s *Server) retryAfterSeconds() int {
	base := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	return base + rand.IntN(base+1)
}

// guarded wraps a query handler with the full guard stack: method check,
// load shedding, per-request deadline, body cap, optional fault-plan
// attachment, and a last-resort panic boundary (the facade already
// contains pipeline panics; this one contains handler bugs).
func (s *Server) guarded(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeAPIError(w, http.StatusMethodNotAllowed, apiError{
				Category: CatBadRequest, Message: "use POST",
			})
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeAPIError(w, http.StatusTooManyRequests, apiError{
				Category: CatOverloaded,
				Message:  fmt.Sprintf("all %d workers busy; retry later", s.cfg.MaxConcurrent),
			})
			return
		}
		s.metrics.inFlight.Add(1)
		defer func() {
			s.metrics.inFlight.Dec()
			<-s.sem
		}()
		s.metrics.served.Inc()

		// Deadline propagation: a caller-advertised remaining budget caps
		// the local deadline but never raises it — the tier above knows
		// how much patience the original caller has left, and burning a
		// full local timeout on work it has abandoned is pure waste.
		timeout := s.cfg.RequestTimeout
		if budget, ok := telemetry.ParseDeadlineMS(r.Header.Get(telemetry.DeadlineHeader)); ok && budget < timeout {
			timeout = budget
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if s.cfg.AllowFaultInjection {
			if hv := r.Header.Get("X-Fault-Seed"); hv != "" {
				seed, err := strconv.ParseInt(hv, 10, 64)
				if err != nil {
					writeAPIError(w, http.StatusBadRequest, apiError{
						Category: CatBadRequest, Message: "X-Fault-Seed must be an integer",
					})
					return
				}
				ctx = faults.WithPlan(ctx, faults.NewPlan(seed))
			}
		}
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		defer func() {
			if rec := recover(); rec != nil {
				writeAPIError(w, http.StatusInternalServerError, apiError{
					Category: CatInternal,
					Message:  "internal error",
					Stage:    "handler",
				})
			}
		}()
		if err := h(w, r); err != nil {
			writeError(w, err)
		}
	}
}

// decode reads the JSON request body into v, distinguishing an oversized
// body from a malformed one.
func (s *Server) decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &requestError{status: http.StatusRequestEntityTooLarge, ae: apiError{
				Category: CatTooLarge,
				Message:  fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}}
		}
		return &requestError{status: http.StatusBadRequest, ae: apiError{
			Category: CatBadRequest, Message: "malformed JSON body: " + err.Error(),
		}}
	}
	return nil
}

// requestError is an already classified failure with its own status
// code: one the envelope checks found here, or a failed outcome (see
// outcome.err), which also names the verification verdict its reply
// reports.
type requestError struct {
	status  int
	ae      apiError
	verdict string
}

func (e *requestError) Error() string { return e.ae.Message }

// Is keeps a classified timeout or cancellation matching the context
// error it came from, so the cache's singleflight still retries a
// follower whose leader's own context died.
func (e *requestError) Is(target error) bool {
	switch e.ae.Category {
	case CatTimeout:
		return target == context.DeadlineExceeded
	case CatCanceled:
		return target == context.Canceled
	}
	return false
}

// diagramRequest is the body of /v1/diagram and /v1/interpret.
type diagramRequest struct {
	SQL    string `json:"sql"`
	Schema string `json:"schema"`
	// Simplify applies the ∄∄ → ∀∃ rewrite before rendering.
	Simplify bool `json:"simplify,omitempty"`
	// Format selects the rendering: "dot" (default), "svg", or "text".
	// Only /v1/diagram reads it.
	Format string `json:"format,omitempty"`
	// Verify overrides the server's default verification mode for this
	// request: "off", "degrade", or "strict".
	Verify string `json:"verify,omitempty"`
}

// newJob validates a decoded request — resolving its schema name,
// defaulting its format and resolving its verification mode — and makes
// it a diagram job carrying the request's injected faults.
func (s *Server) newJob(r *http.Request, req diagramRequest) (*job, error) {
	if req.SQL == "" {
		return nil, &requestError{status: http.StatusBadRequest, ae: apiError{
			Category: CatBadRequest, Message: `missing "sql" field`,
		}}
	}
	if req.Schema == "" {
		return nil, &requestError{status: http.StatusBadRequest, ae: apiError{
			Category: CatBadRequest, Message: `missing "schema" field`,
		}}
	}
	if _, ok := s.runner.schemas[req.Schema]; !ok {
		return nil, &requestError{status: http.StatusBadRequest, ae: apiError{
			Category: CatBadRequest,
			Message:  fmt.Sprintf("unknown schema %q; one of %v", req.Schema, schema.BuiltinNames()),
		}}
	}
	switch req.Format {
	case "":
		req.Format = "dot"
	case "dot", "svg", "text":
	default:
		return nil, &requestError{status: http.StatusBadRequest, ae: apiError{
			Category: CatBadRequest,
			Message:  fmt.Sprintf("unknown format %q; one of dot, svg, text", req.Format),
		}}
	}
	j := &job{Req: req, Mode: s.cfg.DefaultVerify, Quarantine: s.cfg.Quarantine != nil}
	if req.Verify != "" {
		m, err := queryvis.ParseVerifyMode(req.Verify)
		if err != nil {
			return nil, &requestError{status: http.StatusBadRequest, ae: apiError{
				Category: CatBadRequest, Message: err.Error(),
			}}
		}
		j.Mode = m
	}
	if p := faults.FromContext(r.Context()); p != nil {
		j.FaultSeed = &p.Seed
	}
	if s.cfg.AllowFaultInjection {
		j.workerFault = r.Header.Get(faults.HeaderWorkerFault)
	}
	return j, nil
}

// fail writes an already classified failure (a *requestError) as its
// API error, with the verdict header of a strict verification failure,
// and returns nil; any other error is returned for guarded to classify.
func (s *Server) fail(w http.ResponseWriter, err error) error {
	var re *requestError
	if errors.As(err, &re) {
		if re.verdict != "" {
			w.Header().Set(headerVerifyStatus, re.verdict)
		}
		writeAPIError(w, re.status, re.ae)
		return nil
	}
	return err
}

type diagramResponse struct {
	Format         string `json:"format"`
	Diagram        string `json:"diagram"`
	Interpretation string `json:"interpretation"`
	ReadingOrder   []int  `json:"reading_order"`
	Tables         int    `json:"tables"`
	Edges          int    `json:"edges"`
	ElapsedMS      int64  `json:"elapsed_ms"`
	// VerifyStatus and Degraded mirror the X-QueryVis-Verify-Status and
	// X-QueryVis-Degraded headers (see verify.go in the root package).
	VerifyStatus string `json:"verify_status,omitempty"`
	Degraded     string `json:"degraded,omitempty"`
}

func (s *Server) handleDiagram(w http.ResponseWriter, r *http.Request) error {
	started := time.Now()
	var req diagramRequest
	if err := s.decode(r, &req); err != nil {
		return s.fail(w, err)
	}
	noteSQL(w, req.SQL)
	j, err := s.newJob(r, req)
	if err != nil {
		return s.fail(w, err)
	}
	sv, err := s.serveDiagram(r.Context(), j, started)
	if err != nil {
		return s.fail(w, err)
	}
	setResultHeaders(w, sv.resp.VerifyStatus, sv.resp.Degraded, sv.cache)
	writeJSON(w, http.StatusOK, sv.resp)
	return nil
}

type interpretResponse struct {
	Interpretation string `json:"interpretation"`
	TRC            string `json:"trc"`
	Tree           string `json:"tree"`
	NestingDepth   int    `json:"nesting_depth"`
	ElapsedMS      int64  `json:"elapsed_ms"`
	VerifyStatus   string `json:"verify_status,omitempty"`
	Degraded       string `json:"degraded,omitempty"`
}

func (s *Server) handleInterpret(w http.ResponseWriter, r *http.Request) error {
	started := time.Now()
	var req diagramRequest
	if err := s.decode(r, &req); err != nil {
		return s.fail(w, err)
	}
	noteSQL(w, req.SQL)
	j, err := s.newJob(r, req)
	if err != nil {
		return s.fail(w, err)
	}
	j.Interpret = true
	o, err := s.exec(r.Context(), j)
	if err != nil {
		return err
	}
	if err := o.err(); err != nil {
		return s.fail(w, err)
	}
	resp := o.Interpret
	resp.ElapsedMS = time.Since(started).Milliseconds()
	setResultHeaders(w, resp.VerifyStatus, resp.Degraded, "")
	writeJSON(w, http.StatusOK, resp)
	return nil
}

type healthzResponse struct {
	Status        string `json:"status"`
	UptimeMS      int64  `json:"uptime_ms"`
	InFlight      int64  `json:"in_flight"`
	Served        int64  `json:"served"`
	Shed          int64  `json:"shed"`
	MaxConcurrent int    `json:"max_concurrent"`

	// VerifyMode is the default verification mode.
	VerifyMode string `json:"verify_mode"`
	// Quarantine summarizes the failure corpus when one is attached.
	Quarantine *quarantine.Stats `json:"quarantine,omitempty"`
	// Cache summarizes the request-keyed diagram cache when one is
	// enabled: occupancy against its bounds plus lifetime hit/miss/evict
	// counts.
	Cache *diagcache.Stats `json:"cache,omitempty"`
	// Pool reports the worker pool's supervision state when requests are
	// dispatched to child processes (-isolation=process).
	Pool *workerpool.State `json:"pool,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeAPIError(w, http.StatusMethodNotAllowed, apiError{
			Category: CatBadRequest, Message: "use GET",
		})
		return
	}
	// Every number below reads the telemetry registry — the same series
	// /v1/metrics exposes — so the two endpoints cannot disagree.
	reg := s.metrics.reg
	resp := healthzResponse{
		Status:        "ok",
		UptimeMS:      time.Since(s.start).Milliseconds(),
		InFlight:      s.metrics.inFlight.Value(),
		Served:        s.metrics.served.Value(),
		Shed:          s.metrics.shed.Value(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		VerifyMode:    s.cfg.DefaultVerify.String(),
	}
	if s.cfg.Quarantine != nil {
		if st, err := s.cfg.Quarantine.Stats(); err == nil {
			// The corpus gauges read Stats() too; one call serves both the
			// registry-sourced fields and the process counters.
			st.Entries = int(reg.Value(mQuarEntries))
			st.Bytes = int64(reg.Value(mQuarBytes))
			resp.Quarantine = &st
		}
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	if s.cfg.Pool != nil {
		st := s.cfg.Pool.State()
		resp.Pool = &st
	}
	writeJSON(w, http.StatusOK, resp)
}
