package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	queryvis "repro"
	"repro/internal/faults"
	"repro/internal/quarantine"
	"repro/internal/telemetry"
)

// Metric family names served on GET /v1/metrics. The registry is the
// single source of truth for every operational number the service
// reports: /v1/healthz reads the same series, so the two endpoints can
// never disagree.
const (
	mRequests    = "queryvis_http_requests_total"
	mErrors      = "queryvis_http_errors_total"
	mInFlight    = "queryvis_http_in_flight"
	mServed      = "queryvis_http_served_total"
	mShed        = "queryvis_http_shed_total"
	mDuration    = "queryvis_http_request_duration_seconds"
	mVerify      = "queryvis_verify_total"
	mQuarEntries = "queryvis_quarantine_entries"
	mQuarBytes   = "queryvis_quarantine_bytes"
	mStageDur    = "queryvis_stage_duration_seconds"
	mStageSpans  = "queryvis_stage_spans_total"
	mSlowQueries = "queryvis_slow_queries_total"
	mHopDur      = "queryvis_hop_duration_seconds"
	mTraces      = "queryvis_traces_total"
	mTraceRing   = "queryvis_trace_ring_entries"
)

const (
	helpRequests = "Total HTTP requests by route and status code."
	helpErrors   = "Error responses by category."
	helpDuration = "End-to-end request latency by route."
	helpVerify   = "Verification verdicts by status."
	helpStageDur = "Pipeline stage latency by stage."
	helpSpans    = "Pipeline stage spans entered by stage."
	helpHopDur   = "Per-hop latency by hop (instance handler, pool dispatch, worker)."
	helpTraces   = "Completed request traces recorded to the trace ring."
	helpTraceLen = "Traces currently held in the bounded trace ring."
)

// hopNames are the hop spans this process's trace can carry; each gets a
// pre-registered latency histogram so per-hop attribution appears in the
// exposition from the first scrape. (The router's own hop is counted in
// the router's registry, not here.)
var hopNames = []string{spanInstance, spanDispatch, spanWorker}

// Span names for the non-stage hops of a trace.
const (
	spanInstance = "instance"
	spanDispatch = "dispatch"
	spanWorker   = "worker"
	spanItem     = "item"
)

// errorCategories mirrors the taxonomy in errors.go.
var errorCategories = []Category{
	CatBadRequest, CatTooLarge, CatParse, CatSemantic, CatLimit,
	CatTimeout, CatCanceled, CatOverloaded, CatInternal, CatVerifyFailed,
	CatWorkerCrashed,
}

// verifyOutcomes are the verdicts counted by queryvis_verify_total.
// "off" is absent by design: an unrequested verification is not an
// outcome.
var verifyOutcomes = []string{
	queryvis.VerifyStatusVerified, queryvis.VerifyStatusMismatch,
	queryvis.VerifyStatusAmbiguous, queryvis.VerifyStatusTimeout,
	queryvis.VerifyStatusError,
}

// serverMetrics owns the registry and the hot-path instrument handles.
// The load-tracking gauges live here — not as separate atomics on Server
// — so healthz and the exposition read the same storage. The per-stage,
// per-hop, per-category and per-verdict series are pre-registered, so
// their handles are resolved once here instead of re-interned (a label
// sort plus a string build) for every span of every request.
type serverMetrics struct {
	reg         *telemetry.Registry
	inFlight    *telemetry.Gauge
	served      *telemetry.Counter
	shed        *telemetry.Counter
	slowQueries *telemetry.Counter
	traces      *telemetry.Counter
	stages      map[string]stageSeries
	hopDur      map[string]*telemetry.Histogram
	errors      map[Category]*telemetry.Counter
	verify      map[string]*telemetry.Counter
}

// stageSeries is one pipeline stage's span counter and latency histogram.
type stageSeries struct {
	spans *telemetry.Counter
	dur   *telemetry.Histogram
}

// routeSeries caches one route's request-counter and latency handles.
// They are resolved on the route's first request rather than at New, so
// an unserved route still adds no series to the exposition. Registry
// lookups are idempotent, so two requests racing to fill a slot store
// the same handle.
type routeSeries struct {
	reg      *telemetry.Registry
	route    string
	duration atomic.Pointer[telemetry.Histogram]
	codes    [500]atomic.Pointer[telemetry.Counter] // status 100..599
}

func (rs *routeSeries) requests(code int) *telemetry.Counter {
	if code < 100 || code >= 600 {
		return rs.reg.Counter(mRequests, helpRequests, "route", rs.route, "code", strconv.Itoa(code))
	}
	slot := &rs.codes[code-100]
	if c := slot.Load(); c != nil {
		return c
	}
	c := rs.reg.Counter(mRequests, helpRequests, "route", rs.route, "code", strconv.Itoa(code))
	slot.Store(c)
	return c
}

func (rs *routeSeries) latency() *telemetry.Histogram {
	if h := rs.duration.Load(); h != nil {
		return h
	}
	h := rs.reg.Histogram(mDuration, helpDuration, nil, "route", rs.route)
	rs.duration.Store(h)
	return h
}

// initMetrics builds the metric surface: load gauges, pre-registered
// per-stage/per-category/per-outcome families (so zero-valued series
// still appear in the exposition), and gauge funcs reading the
// quarantine through the same snapshot healthz uses.
func (s *Server) initMetrics(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &serverMetrics{
		reg:      reg,
		inFlight: reg.Gauge(mInFlight, "Requests currently being served."),
		served:   reg.Counter(mServed, "Requests admitted past the load shedder."),
		shed:     reg.Counter(mShed, "Requests shed with 429 by the concurrency limiter."),
		slowQueries: reg.Counter(mSlowQueries,
			"Requests slower than the slow-query threshold."),
		stages: make(map[string]stageSeries, len(faults.Stages)),
		hopDur: make(map[string]*telemetry.Histogram, len(hopNames)),
		errors: make(map[Category]*telemetry.Counter, len(errorCategories)),
		verify: make(map[string]*telemetry.Counter, len(verifyOutcomes)),
	}
	// faults.Stages is the full pipeline taxonomy; every stage histogram
	// is pre-registered so /v1/metrics covers all seven stages from the
	// first scrape, observed or not.
	for _, st := range faults.Stages {
		m.stages[string(st)] = stageSeries{
			dur:   reg.Histogram(mStageDur, helpStageDur, nil, "stage", string(st)),
			spans: reg.Counter(mStageSpans, helpSpans, "stage", string(st)),
		}
	}
	for _, hop := range hopNames {
		m.hopDur[hop] = reg.Histogram(mHopDur, helpHopDur, nil, "hop", hop)
	}
	m.traces = reg.Counter(mTraces, helpTraces)
	reg.GaugeFunc(mTraceRing, helpTraceLen,
		func() float64 { return float64(s.traces.Len()) })
	for _, cat := range errorCategories {
		m.errors[cat] = reg.Counter(mErrors, helpErrors, "category", string(cat))
	}
	for _, outcome := range verifyOutcomes {
		m.verify[outcome] = reg.Counter(mVerify, helpVerify, "status", outcome)
	}
	if s.cfg.Quarantine != nil {
		reg.GaugeFunc(mQuarEntries, "Entries in the quarantine corpus.",
			func() float64 { return float64(s.quarantineStats().Entries) })
		reg.GaugeFunc(mQuarBytes, "Bytes in the quarantine corpus.",
			func() float64 { return float64(s.quarantineStats().Bytes) })
	}
	s.metrics = m
}

// quarantineStats snapshots the corpus, absorbing errors into zeros —
// the exposition writer is no place to fail a scrape.
func (s *Server) quarantineStats() quarantine.Stats {
	st, _ := s.cfg.Quarantine.Stats()
	return st
}

// Metrics exposes the registry, primarily so tests (the chaos suite in
// internal/faults) can cross-check counters against observed traffic.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// statusRecorder captures what a handler wrote — status code, error
// category (recorded by writeAPIError), and the request's SQL (recorded
// by the query handlers for the slow-query log) — for the instrument
// wrapper to turn into series after the handler returns.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	category Category
	sql      string
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// noteSQL stores the decoded query text on the recorder when one wraps
// the writer (it does not when telemetry is disabled).
func noteSQL(w http.ResponseWriter, sql string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.sql = sql
	}
}

// instrument wraps a route with per-request telemetry: request-ID
// generation and echo, a fresh tracer on the context (the pipeline's
// stage spans land there), and — after the handler returns — route/code
// counters, the route latency histogram, per-stage histograms fed from
// the trace, the slow-query log, and one structured request log line.
// With telemetry disabled it is the identity function.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.DisableTelemetry {
		return h
	}
	rs := &routeSeries{reg: s.metrics.reg, route: route}
	return func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = telemetry.NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)

		// Join the distributed trace the upstream hop (router) started, or
		// start a new one. An unsampled inbound context still runs under a
		// tracer — the stage metrics need the spans — but stays out of the
		// trace ring.
		sampled := true
		var tr *telemetry.Tracer
		if tc, ok := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader)); ok {
			sampled = tc.Sampled
			tr = telemetry.NewTracerForTrace(tc.TraceID, tc.SpanID)
		} else {
			tr = telemetry.NewTracerForTrace(telemetry.NewTraceID(), "")
		}
		w.Header().Set(telemetry.TraceIDHeader, tr.TraceID())
		root := tr.StartRoot(spanInstance)
		root.Annotate("route", route)

		ctx := telemetry.WithRequestID(telemetry.WithTracer(r.Context(), tr), rid)
		rec := &statusRecorder{ResponseWriter: w}

		h(rec, r.WithContext(ctx))

		root.End()
		elapsed := time.Since(started)
		code := rec.status
		if code == 0 {
			code = http.StatusOK
		}
		m := s.metrics
		rs.requests(code).Inc()
		if rec.category != "" {
			m.errorCounter(rec.category).Inc()
		}
		rs.latency().Observe(elapsed.Seconds())
		spans := tr.Spans()
		// The trace also carries per-item batch spans, which belong to
		// neither the stage nor the hop families.
		for _, sp := range spans {
			if st, ok := m.stages[sp.Name]; ok {
				st.spans.Inc()
				st.dur.Observe(sp.Duration.Seconds())
			} else if h, ok := m.hopDur[sp.Name]; ok {
				h.Observe(sp.Duration.Seconds())
			}
		}
		if sampled {
			s.traces.Put(telemetry.TraceRecord{
				TraceID:   tr.TraceID(),
				RequestID: rid,
				Start:     started,
				Duration:  elapsed,
				Spans:     spans,
			})
			m.traces.Inc()
		}

		slow := s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold
		if slow {
			m.slowQueries.Inc()
		}
		if log := s.cfg.Logger; log != nil {
			var buf [9]slog.Attr
			attrs := append(buf[:0],
				slog.String("request_id", rid),
				slog.String("trace_id", tr.TraceID()),
				slog.String("route", route),
				slog.Int("code", code),
				slog.Int64("elapsed_ms", elapsed.Milliseconds()),
			)
			if rec.category != "" {
				attrs = append(attrs, slog.String("category", string(rec.category)))
			}
			if slow {
				// Only the slow path pays for scrubbing; the SQL never reaches
				// a log line unscrubbed.
				attrs = append(attrs, slog.Bool("slow", true))
				if rec.sql != "" {
					attrs = append(attrs, slog.String("sql", quarantine.ScrubSQL(rec.sql)))
				}
				attrs = append(attrs, slog.String("trace", "\n"+telemetry.FormatTree(spans)))
				log.LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
			} else {
				log.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
			}
		}
	}
}

// recordVerifyOutcome counts one verification verdict: once per run
// (see exec), in the process that owns the listener, from the outcome's
// verdict in either isolation mode. Cache hits are not runs and are not
// counted.
func (s *Server) recordVerifyOutcome(status string) {
	if s.cfg.DisableTelemetry || status == "" || status == queryvis.VerifyStatusOff {
		return
	}
	c, ok := s.metrics.verify[status]
	if !ok {
		c = s.metrics.reg.Counter(mVerify, helpVerify, "status", status)
	}
	c.Inc()
}

// errorCounter returns the pre-resolved counter for an error category,
// interning one for a category outside the taxonomy.
func (m *serverMetrics) errorCounter(cat Category) *telemetry.Counter {
	if c, ok := m.errors[cat]; ok {
		return c
	}
	return m.reg.Counter(mErrors, helpErrors, "category", string(cat))
}

// handleMetrics serves the Prometheus text exposition. With telemetry
// disabled the route does not exist.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DisableTelemetry {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeAPIError(w, http.StatusMethodNotAllowed, apiError{
			Category: CatBadRequest, Message: "use GET",
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}
