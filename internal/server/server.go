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
	// Pool attached it also forwards X-Fault-Seed and X-Worker-Fault to
	// the worker, so pipeline- and process-level faults compose.
	AllowFaultInjection bool

	// Pool, when non-nil, runs the pipeline in sacrificial child
	// processes (see internal/workerpool) instead of in-process: a query
	// that exhausts the stack or the heap kills a worker, never this
	// daemon. The envelope guards (method, shedding, deadline, body cap),
	// the diagram endpoints' JSON decoding and validation, and the
	// diagram cache still run here, so a cache hit never reaches a
	// worker; SQL is parsed only in the workers, where the pipeline and
	// its guards run again. /v1/interpret is forwarded whole.
	Pool *workerpool.Pool

	// CacheEntries, when positive, gives this server its own
	// request-keyed diagram cache (see internal/diagcache) bounded to this
	// many entries and to the diagcache default of 64 MiB of payload,
	// registered on this server's metrics registry — in either isolation
	// mode; a pool's workers never cache. The query endpoints serve
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
	// schemas holds the built-in schemas, resolved once at New and shared
	// read-only by every request (the pipeline never mutates a schema).
	schemas map[string]*schema.Schema
	// build is the X-Queryvis-Build header value, one slice shared by
	// every response so that stamping it allocates nothing; its
	// capacity of one makes any append copy it. Nil when the binary is
	// unknown (see buildIdentity).
	build []string
}

// New builds a Server from the config. The server it builds owns the
// instance's diagram cache whether or not a pool is attached: with one,
// the diagram endpoints still decode, validate and look up here, and
// only cache misses and /v1/interpret reach a worker.
func New(cfg Config) *Server {
	cfg = cfg.WithDefaults()
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		schemas: make(map[string]*schema.Schema),
	}
	for _, name := range schema.BuiltinNames() {
		s.schemas[name], _ = schema.ByName(name)
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
	interpret := s.handleInterpret
	if cfg.Pool != nil {
		interpret = s.poolDispatch("/v1/interpret")
	}
	s.mux.HandleFunc("/v1/diagram", s.instrument("/v1/diagram", s.guarded(s.handleDiagram)))
	s.mux.HandleFunc("/v1/diagrams:batch", s.instrument("/v1/diagrams:batch", s.guarded(s.handleBatch)))
	s.mux.HandleFunc("/v1/interpret", s.instrument("/v1/interpret", s.guarded(interpret)))
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
			return &requestError{http.StatusRequestEntityTooLarge, apiError{
				Category: CatTooLarge,
				Message:  fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}}
		}
		return &requestError{http.StatusBadRequest, apiError{
			Category: CatBadRequest, Message: "malformed JSON body: " + err.Error(),
		}}
	}
	return nil
}

// requestError is an envelope-level failure with its own status code.
type requestError struct {
	status int
	ae     apiError
}

func (e *requestError) Error() string { return e.ae.Message }

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

// validate resolves the request's schema and defaults its format.
func (s *Server) validate(req *diagramRequest) (*schema.Schema, error) {
	if req.SQL == "" {
		return nil, &requestError{http.StatusBadRequest, apiError{
			Category: CatBadRequest, Message: `missing "sql" field`,
		}}
	}
	if req.Schema == "" {
		return nil, &requestError{http.StatusBadRequest, apiError{
			Category: CatBadRequest, Message: `missing "schema" field`,
		}}
	}
	sch, ok := s.schemas[req.Schema]
	if !ok {
		return nil, &requestError{http.StatusBadRequest, apiError{
			Category: CatBadRequest,
			Message:  fmt.Sprintf("unknown schema %q; one of %v", req.Schema, schema.BuiltinNames()),
		}}
	}
	switch req.Format {
	case "":
		req.Format = "dot"
	case "dot", "svg", "text":
	default:
		return nil, &requestError{http.StatusBadRequest, apiError{
			Category: CatBadRequest,
			Message:  fmt.Sprintf("unknown format %q; one of dot, svg, text", req.Format),
		}}
	}
	return sch, nil
}

// fail writes an envelope-level failure (a *requestError) as its API
// error and returns nil; any other error is returned for the caller to
// classify as a pipeline error.
func (s *Server) fail(w http.ResponseWriter, err error) error {
	var re *requestError
	if errors.As(err, &re) {
		writeAPIError(w, re.status, re.ae)
		return nil
	}
	return err
}

func (s *Server) options(req *diagramRequest) queryvis.Options {
	opts := queryvis.Options{Simplify: req.Simplify}
	if !s.cfg.Unlimited {
		lim := s.cfg.Limits
		opts.Limits = &lim
	}
	return opts
}

// verifyMode resolves the request's effective verification mode.
func (s *Server) verifyMode(req *diagramRequest) (queryvis.VerifyMode, error) {
	if req.Verify == "" {
		return s.cfg.DefaultVerify, nil
	}
	m, err := queryvis.ParseVerifyMode(req.Verify)
	if err != nil {
		return queryvis.VerifyOff, &requestError{http.StatusBadRequest, apiError{
			Category: CatBadRequest, Message: err.Error(),
		}}
	}
	return m, nil
}

// runVerified executes the pipeline under the request's verification
// mode, counts the verdict (see recordVerifyOutcome), and scrubs and
// quarantines inputs that failed verification or tripped panic
// containment.
func (s *Server) runVerified(ctx context.Context, req *diagramRequest, sch *schema.Schema) (*queryvis.Result, queryvis.VerifyMode, error) {
	mode, err := s.verifyMode(req)
	if err != nil {
		return nil, mode, err
	}
	opts := s.options(req)
	opts.Verify = mode

	res, err := queryvis.FromSQLContext(ctx, req.SQL, sch, opts)

	status := verifyOutcome(res, err)
	if mode != queryvis.VerifyOff {
		s.recordVerifyOutcome(status)
	}
	s.maybeQuarantine(ctx, req, res, err, status)

	if err != nil {
		return nil, mode, err
	}
	return res, mode, nil
}

// verifyOutcome extracts the verification verdict from a pipeline
// outcome: the result's status on success, the VerifyError's status on a
// strict failure, "" when verification never reached a verdict.
func verifyOutcome(res *queryvis.Result, err error) string {
	if err != nil {
		var ve *queryvis.VerifyError
		if errors.As(err, &ve) {
			return ve.Status
		}
		return ""
	}
	return res.VerifyStatus
}

// maybeQuarantine persists the request's scrubbed input when it failed
// verification (including served-degraded responses) or tripped panic
// containment. Deduplication lives in the store: re-filing a known
// failure is a no-op.
func (s *Server) maybeQuarantine(ctx context.Context, req *diagramRequest, res *queryvis.Result, err error, status string) {
	if s.cfg.Quarantine == nil {
		return
	}
	var stage, detail, rung string
	switch {
	case err != nil:
		var ie *queryvis.InternalError
		var ve *queryvis.VerifyError
		switch {
		case errors.As(err, &ie):
			stage, status = "panic", queryvis.VerifyStatusError
		case errors.As(err, &ve):
			stage, status = ve.Status, ve.Status
		default:
			return // user faults, limits, timeouts: not corpus material
		}
		detail = err.Error()
	case status == "" || status == queryvis.VerifyStatusOff ||
		status == queryvis.VerifyStatusVerified:
		return
	default:
		stage, detail, rung = status, res.VerifyDetail, res.Degraded
	}

	e := quarantine.Entry{
		Stage:    stage,
		Schema:   req.Schema,
		SQL:      quarantine.ScrubSQL(req.SQL),
		Status:   status,
		Rung:     rung,
		Detail:   detail,
		Simplify: req.Simplify,
	}
	if p := faults.FromContext(ctx); p != nil {
		e.FaultSeed = p.Seed
	}
	// Fingerprinting is a factorial-cost canonical labeling, and this is
	// the request path on input that just failed — bound it, and let the
	// scrubbed SQL carry dedup for diagrams too symmetric to label
	// cheaply (a wide query's sibling boxes are exactly that case).
	if res != nil && res.Diagram != nil {
		if k, ok := queryvis.PatternFingerprintBounded(res.Diagram, queryvis.DefaultFingerprintPerms); ok {
			e.PatternKey = k
		}
	}
	_, _, _ = s.cfg.Quarantine.Add(e) // best-effort: serving beats filing
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
	sch, err := s.validate(&req)
	if err != nil {
		return s.fail(w, err)
	}
	sv, err := s.serveDiagram(r, &req, sch, started)
	if err != nil {
		return s.fail(w, err)
	}
	sv.write(w)
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
	sch, err := s.validate(&req)
	if err != nil {
		return s.fail(w, err)
	}
	res, mode, err := s.runVerified(r.Context(), &req, sch)
	if err != nil {
		return s.fail(w, err)
	}
	resp := interpretResponse{
		Interpretation: res.Interpretation,
		TRC:            res.TRC.String(),
		ElapsedMS:      time.Since(started).Milliseconds(),
		VerifyStatus:   reportedStatus(mode, res.VerifyStatus),
		Degraded:       res.Degraded,
	}
	// A result degraded to the TRC rung carries no tree; the calculus
	// text above is the whole answer.
	if res.Tree != nil && res.Degraded != queryvis.RungTRC {
		resp.Tree = res.Tree.String()
		resp.NestingDepth = res.Tree.MaxDepth()
	}
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
