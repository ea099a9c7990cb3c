// Package router is the scale-out front door: a stdlib-only
// consistent-hash router that shards QueryVis requests across N
// queryvisd instances by request body hash, with live ring
// membership, one health streak per member fed by active probes and
// forwarded outcomes, a router-side response cache, and failover along
// the ring as the only retry. Its one hard promise
// is the same one the daemon makes — every request ends in a
// well-formed response: a proxied answer, a backend's own categorized
// error, or the router's honest 503 with Retry-After when the whole
// ring is unhealthy. Never a hang, never a silent drop.
//
// Sharding key: the router cannot parse SQL (that is what the backends'
// sacrificial workers are for), so it routes by the hash of the request
// body. The backends' diagram caches are keyed on the request too, so
// every repeat of a body lands on the instance whose cache already
// holds it; the hash is deterministic and evenly spread. The same body
// always gets the same bytes, whichever instance answers.
//
// Topology is live: Join, Drain and Eject change the members at runtime
// against an epoch-versioned immutable snapshot (see membership.go).
// Their one caller is the fleet supervisor (internal/fleet), which owns
// every membership change and finishes every drain. The router owns the
// one health verdict (see health.go), one streak per member fed by its
// prober and by the outcomes of forwarded requests: a member marked down
// stays on the ring and its keys fail over to their ring successors, so
// no health event changes membership. The router's hot tier is its
// response cache (see respcache.go): singleflight plus a verified-only
// LRU whose entries are served only while the member that would answer
// reports the build that produced them, answer repeats of a popular
// body, and the identical requests of a cache-cold failover window,
// without a backend trip. Every request that misses it follows its
// key's ring order.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Metric families exported by the router; healthz reads these same
// series back, so the two endpoints can never disagree.
const (
	mRequests        = "queryvis_router_requests_total"
	mProxyDur        = "queryvis_router_request_duration_seconds"
	mFailovers       = "queryvis_router_failovers_total"
	mNoHealthy       = "queryvis_router_no_healthy_total"
	mInstReqs        = "queryvis_router_instance_requests_total"
	mInstFails       = "queryvis_router_instance_failures_total"
	mInstUp          = "queryvis_router_instance_healthy"
	mInstDraining    = "queryvis_router_instance_draining"
	mHealDur         = "queryvis_router_heal_duration_seconds"
	mEpoch           = "queryvis_router_ring_epoch"
	mMembers         = "queryvis_router_ring_members"
	mMembership      = "queryvis_router_membership_changes_total"
	mStampede        = "queryvis_router_stampede_total"
	mStampedeEntries = "queryvis_router_stampede_entries"
	mOrigin          = "queryvis_router_origin_responses_total"
	mTraces          = "queryvis_router_traces_total"
	mTraceRing       = "queryvis_router_trace_ring_entries"
)

// outcome labels for mRequests.
var outcomes = []string{"proxied", "shed", "error"}

// Config tunes the router. Zero fields take the documented defaults.
type Config struct {
	// Backends are the instance base URLs (e.g. "http://127.0.0.1:8081").
	// Required, at least one. This is only the *initial* membership; the
	// fleet supervisor grows and shrinks it at runtime.
	Backends []string
	// HealthInterval is the active health-check period (default 250ms).
	HealthInterval time.Duration
	// ProbeDownAfter is how many failures in one streak, failed probes
	// and failed forwarded requests alike, mark a healthy instance
	// unhealthy (default 2). A forwarded pass ends the streak; a passing
	// probe clears only the failed probes in it. Hysteresis: one blown
	// probe or request against a busy instance must not take it out.
	ProbeDownAfter int
	// InstanceTimeout bounds one forwarded attempt end-to-end
	// (default 30s). Each candidate gets one attempt; the ring order is
	// the only retry.
	InstanceTimeout time.Duration
	// MaxBodyBytes caps a routed request body; bigger bodies get a 413
	// without touching a backend (default 4 MiB).
	MaxBodyBytes int64
	// ResponseCache turns on the router's response cache (see
	// respcache.go). queryvisd's router always turns it on; the zero
	// value leaves it off, because the cache changes single-client
	// visible behavior (repeated requests stop reaching a backend).
	ResponseCache bool
	// Metrics receives the router's series; nil creates a private
	// registry.
	Metrics *telemetry.Registry
	// Logger, when non-nil, receives routing events.
	Logger *slog.Logger
}

// WithDefaults returns the config with every zero field set to its
// documented default: the values New runs with.
func (c Config) WithDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.ProbeDownAfter <= 0 {
		c.ProbeDownAfter = 2
	}
	if c.InstanceTimeout <= 0 {
		c.InstanceTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	return c
}

// Router is the handler. It proxies POST API calls by body hash and
// serves its own /v1/healthz, /v1/metrics, /v1/traces and /v1/fleet
// (the router's, not a backend's — a load balancer's health is a
// different fact from any instance's health).
type Router struct {
	cfg Config

	// topo is the live membership snapshot; see membership.go. Writers
	// serialize on memberMu and swap whole immutable values.
	topo     atomic.Pointer[topology]
	memberMu sync.Mutex
	// seenURLs records which member URLs already own metric series, so
	// a leave/rejoin cycle reuses one series instead of panicking on
	// re-registration. Guarded by memberMu after New.
	seenURLs map[string]bool

	stampede *stampede // nil ⇒ response cache disabled
	// The mStampede series by outcome: a served cache "hit", a follower
	// "coalesced" onto a leader's flight, a shareable response "insert"
	// (a new entry or one replacing another build's). Nil when disabled.
	stampedeHit, stampedeCoalesced, stampedeInsert *telemetry.Counter

	hc          *http.Client    // proxy path: one attempt per candidate
	probeClient *http.Client    // health path: short timeout
	transport   *http.Transport // owned by the router; idle conns die at Close

	reg         *telemetry.Registry
	requests    map[string]*telemetry.Counter
	proxyDur    *telemetry.Histogram
	failovers   *telemetry.Counter
	noHealthy   *telemetry.Counter
	healDur     *telemetry.Histogram
	traces      *telemetry.TraceRing
	tracesTotal *telemetry.Counter

	// fleetStatus, when set, contributes the fleet supervisor's
	// reconciliation status to /v1/fleet responses.
	fleetStatus atomic.Pointer[func() any]

	// ctx ends at Close; every probe runs under it.
	ctx   context.Context
	stop  context.CancelFunc
	loops sync.WaitGroup
}

// New builds the router and starts its health prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: Config.Backends is required")
	}
	cfg = cfg.WithDefaults()
	rt := &Router{
		cfg:      cfg,
		seenURLs: make(map[string]bool),
		reg:      cfg.Metrics,
	}
	rt.ctx, rt.stop = context.WithCancel(context.Background())
	if rt.reg == nil {
		rt.reg = telemetry.NewRegistry()
	}

	members := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		u, err := NormalizeMember(b)
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			if m == u {
				return nil, fmt.Errorf("router: duplicate backend %q", u)
			}
		}
		members = append(members, u)
	}

	rt.transport = &http.Transport{MaxIdleConnsPerHost: 32}
	rt.hc = &http.Client{Timeout: cfg.InstanceTimeout, Transport: rt.transport}
	rt.probeClient = &http.Client{Timeout: probeTimeout, Transport: rt.transport}

	rt.requests = make(map[string]*telemetry.Counter, len(outcomes))
	for _, o := range outcomes {
		rt.requests[o] = rt.reg.Counter(mRequests, "Routed requests by outcome.", "outcome", o)
	}
	rt.proxyDur = rt.reg.Histogram(mProxyDur, "Routed request latency, failovers included.",
		[]float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10})
	rt.failovers = rt.reg.Counter(mFailovers, "Requests moved to the next ring instance after a failure.")
	rt.noHealthy = rt.reg.Counter(mNoHealthy, "Requests shed because no ring instance was eligible.")
	rt.healDur = rt.reg.Histogram(mHealDur, "Seconds from an instance being marked down to the prober admitting it again.",
		[]float64{0.5, 1, 2.5, 5, 10, 30, 60, 120})
	rt.traces = telemetry.NewTraceRing(0)
	rt.tracesTotal = rt.reg.Counter(mTraces, "Router hop spans recorded to the trace ring.")
	rt.reg.GaugeFunc(mTraceRing, "Traces currently held in the router's bounded trace ring.",
		func() float64 { return float64(rt.traces.Len()) })
	rt.reg.GaugeFunc(mEpoch, "Ring topology epoch; bumps on every membership change.",
		func() float64 { return float64(rt.topo.Load().epoch) })
	rt.reg.GaugeFunc(mMembers, "Current ring member count.",
		func() float64 { return float64(len(rt.topo.Load().members)) })

	if cfg.ResponseCache {
		rt.stampede = newStampede()
		rt.reg.GaugeFunc(mStampedeEntries, "Resident stampede response-cache entries.",
			func() float64 { return float64(rt.stampede.len()) })
		rt.stampedeHit = rt.stampedeCounter("hit")
		rt.stampedeCoalesced = rt.stampedeCounter("coalesced")
		rt.stampedeInsert = rt.stampedeCounter("insert")
	}

	insts := make([]*instance, len(members))
	for i, m := range members {
		insts[i] = rt.newInstance(m)
		insts[i].healthy.Store(true) // optimistic: see instance.healthy
	}
	rt.topo.Store(&topology{
		epoch:   1,
		members: members,
		insts:   insts,
		ring:    newRing(members, ringReplicas),
	})

	rt.loops.Add(1)
	go rt.prober()
	return rt, nil
}

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *telemetry.Registry { return rt.reg }

// Close stops the health prober, cancels its in-flight probes and waits
// for them, and releases idle connections. Safe to call more than once.
func (rt *Router) Close() {
	rt.stop()
	rt.loops.Wait()
	rt.transport.CloseIdleConnections()
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/healthz":
		rt.handleHealthz(w, r)
	case r.URL.Path == "/v1/metrics":
		rt.reg.WritePrometheus(w)
	case r.URL.Path == "/v1/traces":
		rt.handleTraces(w, r)
	case r.URL.Path == "/v1/fleet":
		rt.handleFleet(w, r)
	default:
		rt.route(w, r)
	}
}

// carriesFaultHeaders reports whether the request injects chaos faults
// (X-Fault-Seed / X-Worker-Fault, honored by backends in test mode).
// Such requests must reach a real backend and must never be answered
// from — or inserted into — any shared cache.
func carriesFaultHeaders(r *http.Request) bool {
	return r.Header.Get("X-Fault-Seed") != "" || r.Header.Get("X-Worker-Fault") != ""
}

// route proxies one API request along its key's ring order.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	// Open this hop's slice of the distributed trace: adopt the caller's
	// trace context or start a fresh trace, then stamp the router's span
	// as the parent on the forwarded headers (forward copies r.Header).
	// The span itself is recorded into the router's ring by the deferred
	// finish, annotated with where the request actually went — the
	// read-time /v1/traces merge joins it with the instance's subtree.
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = telemetry.NewRequestID()
		r.Header.Set("X-Request-Id", rid)
	}
	traceID, parentSpan, sampled := "", "", true
	if tc, ok := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader)); ok {
		traceID, parentSpan, sampled = tc.TraceID, tc.SpanID, tc.Sampled
	} else {
		traceID = telemetry.NewTraceID()
	}
	spanID := telemetry.NewSpanID()
	r.Header.Set(telemetry.TraceHeader,
		telemetry.TraceContext{TraceID: traceID, SpanID: spanID, Sampled: sampled}.Header())
	w.Header().Set(telemetry.TraceIDHeader, traceID)
	var traceOutcome, traceInstance, traceVia string
	defer func() {
		if !sampled {
			return
		}
		sp := telemetry.Span{
			Name: "router", ID: spanID, Parent: parentSpan,
			Start: start, Duration: time.Since(start), Done: true,
			Attrs: []telemetry.Attr{{Key: "outcome", Value: traceOutcome}},
		}
		if traceInstance != "" {
			sp.Attrs = append(sp.Attrs, telemetry.Attr{Key: "instance", Value: traceInstance})
		}
		if traceVia != "" {
			sp.Attrs = append(sp.Attrs, telemetry.Attr{Key: "shared", Value: traceVia})
		}
		rt.traces.Put(telemetry.TraceRecord{
			TraceID: traceID, RequestID: rid,
			Start: start, Duration: sp.Duration, Spans: []telemetry.Span{sp},
		})
		rt.tracesTotal.Inc()
	}()
	traceOutcome = "error"

	// Deadline propagation: a caller-advertised remaining budget bounds
	// this whole routing attempt — failovers included — and forward
	// re-stamps each outgoing hop with what's left, so an instance never
	// burns its full local deadline on a request the caller has already
	// written off.
	hasBudget := false
	if budget, ok := telemetry.ParseDeadlineMS(r.Header.Get(telemetry.DeadlineHeader)); ok {
		hasBudget = true
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		rt.fail(w, r, http.StatusBadRequest, "bad_request", "reading request body failed")
		return
	}
	if int64(len(body)) > rt.cfg.MaxBodyBytes {
		rt.fail(w, r, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds the router's %d-byte cap", rt.cfg.MaxBodyBytes))
		return
	}

	// The response cache: a cached shareable answer to this exact
	// request is replayed from the router's memory; otherwise concurrent
	// identical requests collapse into one upstream call. The leader
	// registers a flight here and resolves it at every exit below via
	// the deferred complete; followers wait and replay a shareable
	// result, or make their own trip when the leader's wasn't.
	var (
		flight    *stampedeFlight
		skey      string
		h         uint32 // the body's keyHash, computed on a miss
		delivered *sharedResp
	)
	if rt.stampede != nil && !carriesFaultHeaders(r) && len(body)+len(r.URL.Path) < stampedeMaxKeyBytes {
		skey = r.Method + " " + r.URL.Path + "\x00" + string(body)
		if sr := rt.stampede.get(skey, rt.topo.Load()); sr != nil {
			rt.stampedeHit.Inc()
			rt.requests["proxied"].Inc()
			rt.proxyDur.Observe(time.Since(start).Seconds())
			traceOutcome, traceVia = "proxied", "hit"
			writeShared(w, sr, "hit", rid)
			return
		}
		fl, leader := rt.stampede.join(skey)
		if leader {
			flight = fl
			defer func() {
				if rt.stampede.complete(skey, h, flight, delivered) {
					rt.stampedeInsert.Inc()
				}
			}()
		} else {
			select {
			case <-fl.done:
				if fl.sr != nil {
					rt.stampedeCoalesced.Inc()
					rt.requests["proxied"].Inc()
					rt.proxyDur.Observe(time.Since(start).Seconds())
					traceOutcome, traceVia = "proxied", "coalesced"
					writeShared(w, fl.sr, "coalesced", rid)
					return
				}
				// The leader's outcome wasn't shareable (an error or a
				// degraded artifact): fall through to our own upstream
				// call — failures are never amplified by replay.
			case <-r.Context().Done():
				rt.requests["error"].Inc()
				rt.fail(w, r, http.StatusServiceUnavailable, "canceled",
					"request canceled while waiting on a coalesced upstream call")
				return
			}
		}
	}

	// One topology snapshot per request: the candidate list, the
	// instance pointers, and the ring agree with each other even if a
	// membership change lands mid-request.
	tp := rt.topo.Load()
	h = keyHash(body)
	order := tp.ring.order(h)

	// The failover schedule: the key's eligible instances in ring order.
	// When health verdicts and drain flags have disqualified everyone,
	// that is the fully-unhealthy case — shed honestly rather than queue
	// blind.
	candidates := make([]*instance, 0, len(order))
	for _, idx := range order {
		if tp.insts[idx].eligible() {
			candidates = append(candidates, tp.insts[idx])
		}
	}
	if len(candidates) == 0 {
		rt.noHealthy.Inc()
		rt.requests["shed"].Inc()
		traceOutcome = "shed"
		rt.shed(w, r)
		return
	}

	var lastErr error
	var lastShed *sharedResp
	for i, in := range candidates {
		last := i == len(candidates)-1
		if r.Context().Err() != nil {
			// The caller's budget (or connection) died mid-schedule:
			// further attempts serve nobody.
			break
		}
		in.reqs.Inc()
		sr, err := rt.forward(r, in, body)
		if err != nil {
			lastErr = err
			in.fails.Inc()
			// An attempt cut short by the caller's own deadline budget or
			// disconnect says nothing about the member.
			if r.Context().Err() == nil {
				rt.forwarded(in, false)
			}
			rt.log("instance attempt failed", "instance", in.url, "err", err, "failover", !last)
			if !last {
				rt.failovers.Inc()
			}
			continue
		}
		noteBuild(in, sr.header)
		// The outcome feeds the member's streak: a 502 or 503 fails it,
		// like a transport error, and any status below 500 but 429 passes
		// it. A 429 is the load shedder doing its job, and a 500 or 504
		// may be one poison query, not a sick member: both leave it be.
		switch {
		case sr.status == http.StatusBadGateway || sr.status == http.StatusServiceUnavailable:
			in.fails.Inc()
			rt.forwarded(in, false)
		case sr.status < http.StatusInternalServerError && sr.status != http.StatusTooManyRequests:
			rt.forwarded(in, true)
		}
		if retryElsewhere(sr.status) && !last {
			// The instance shed or is failing; its ring successor gets the
			// request. Keep an instance's own shed response: if every
			// remaining candidate fails at the transport level, this —
			// with its better-informed Retry-After — is what the client
			// gets, not a router-minted 503 that masks the backpressure.
			if sr.status == http.StatusTooManyRequests {
				lastShed = sr
			}
			rt.failovers.Inc()
			rt.log("instance shed, failing over", "instance", in.url, "status", sr.status)
			continue
		}
		// A response to deliver — a success, a categorized client error,
		// or (on the last candidate) the backend's own shed response,
		// passed through verbatim: it is well-formed and honest, and the
		// backend's Retry-After is better informed than ours.
		rt.requests["proxied"].Inc()
		rt.proxyDur.Observe(time.Since(start).Seconds())
		traceOutcome, traceInstance = "proxied", in.url
		delivered = sr // deferred stampede complete decides shareability
		writeShared(w, sr, "", "")
		return
	}
	// A caller budget that ran out is a timeout, categorized as one —
	// the caller gave us N ms and we spent them; a 503 here would invite
	// an immediate (pointless) retry.
	if hasBudget && r.Context().Err() == context.DeadlineExceeded {
		rt.requests["error"].Inc()
		rt.proxyDur.Observe(time.Since(start).Seconds())
		rt.log("caller deadline budget exhausted", "err", lastErr)
		traceOutcome = "timeout"
		rt.fail(w, r, http.StatusGatewayTimeout, "timeout",
			"caller deadline budget exhausted before any instance answered")
		return
	}
	// Every remaining candidate failed at the transport level. If some
	// instance shed with a 429 along the way, that response — Retry-After
	// intact — is the honest answer: the fleet is saturated, and masking
	// its backpressure behind a router-minted 503 misprices the retry.
	if lastShed != nil {
		rt.requests["proxied"].Inc()
		rt.proxyDur.Observe(time.Since(start).Seconds())
		rt.log("all failover candidates failed; passing through instance shed response")
		traceOutcome = "proxied"
		delivered = lastShed
		writeShared(w, lastShed, "", "")
		return
	}
	// Nothing well-formed to pass through, so answer with the router's
	// own typed 503.
	rt.requests["error"].Inc()
	rt.proxyDur.Observe(time.Since(start).Seconds())
	rt.log("all candidates failed", "err", lastErr)
	traceOutcome = "shed"
	rt.shed(w, r)
}

// maxBufferedResponse caps a buffered upstream response. Diagram
// payloads are a few KiB; anything past this cap is a wire-contract
// violation by the backend and is treated as an instance failure.
const maxBufferedResponse = 64 << 20

// forward sends the request to one instance, once, and buffers the full
// response. Buffering is what
// makes failover and stampede sharing honest: a connection that dies
// mid-body is discovered here — and failed over — instead of after the
// response status has already been committed to the client. The
// instance's in-flight count covers the whole exchange; the fleet
// supervisor finishes a drain only once it reads zero.
func (rt *Router) forward(r *http.Request, in *instance, body []byte) (*sharedResp, error) {
	in.inflight.Add(1)
	defer in.inflight.Add(-1)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, in.url+r.URL.Path, readerFor(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		if isHopByHop(k) {
			continue
		}
		req.Header[k] = vs
	}
	// Re-stamp the caller's deadline budget with what this hop has left:
	// the instance should see the remaining time, not the original grant
	// — failovers have already spent part of it.
	if _, ok := telemetry.ParseDeadlineMS(r.Header.Get(telemetry.DeadlineHeader)); ok {
		if dl, hasDL := r.Context().Deadline(); hasDL {
			req.Header.Set(telemetry.DeadlineHeader, telemetry.FormatDeadlineMS(time.Until(dl)))
		}
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxBufferedResponse+1))
	if err != nil {
		return nil, err
	}
	if len(rb) > maxBufferedResponse {
		return nil, fmt.Errorf("router: response from %s exceeds the %d-byte buffer cap",
			in.url, maxBufferedResponse)
	}
	// Hop-by-hop headers are dropped once, here, so writeShared can hand
	// out the stored value slices on every replay. Clone clips each
	// slice's capacity, so a writer's Add reallocates instead of writing
	// into the entry.
	h := resp.Header.Clone()
	for k := range h {
		if isHopByHop(k) {
			delete(h, k)
		}
	}
	return &sharedResp{status: resp.StatusCode, header: h, body: rb}, nil
}

// writeShared delivers a buffered response. via tags replayed
// responses ("hit", "coalesced") with X-Queryvis-Router-Cache so a
// client can tell router-served from instance-served answers; a live
// proxied response passes empty via and gets no marker. A replay was
// stored with another request's IDs and Date, so it carries the
// caller's rid, this hop's trace ID (already set on w) and no Date,
// which net/http then stamps fresh.
func writeShared(w http.ResponseWriter, sr *sharedResp, via, rid string) {
	h := w.Header()
	traceID := h.Get(telemetry.TraceIDHeader)
	for k, vs := range sr.header {
		h[k] = vs
	}
	if via != "" {
		h.Del("Date")
		h.Set("X-Queryvis-Router-Cache", via)
		h.Set("X-Request-Id", rid)
		h.Set(telemetry.TraceIDHeader, traceID)
	}
	w.WriteHeader(sr.status)
	_, _ = w.Write(sr.body)
}

// retryElsewhere reports whether a response status means the next ring
// instance should get the request instead: the instance is shedding
// (429), draining or crashed (503), or behind a broken gateway (502).
func retryElsewhere(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// shed writes the router's own honest 503: a categorized error body in
// the service's wire shape plus a one-second Retry-After, so a
// well-behaved client (internal/client) backs off and retries instead
// of seeing a blank failure.
func (rt *Router) shed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	rt.fail(w, r, http.StatusServiceUnavailable, "overloaded",
		"no healthy instance in the ring; retry shortly")
}

// requestID echoes the caller's X-Request-Id or mints one, so every
// router-originated response is traceable even when the client sent
// nothing to correlate by.
func (rt *Router) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return telemetry.NewRequestID()
}

// fail writes a categorized error in the same wire shape the backends
// use, so router-origin and instance-origin failures are structurally
// indistinguishable to clients — except for the X-Request-Id the
// router stamps (and echoes) on its own responses, which is exactly
// what lets an operator attribute a 503 to the router rather than an
// instance. Every router-originated response is counted by category.
func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, category, msg string) {
	id := rt.requestID(r)
	rt.reg.Counter(mOrigin, "Router-originated responses by category.", "category", category).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", id)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{"category": category, "message": msg, "request_id": id},
	})
}

// stampedeCounter registers the outcome-labeled stampede counter.
func (rt *Router) stampedeCounter(outcome string) *telemetry.Counter {
	return rt.reg.Counter(mStampede, "Stampede-control events by outcome.", "outcome", outcome)
}

// isHopByHop reports whether k, a canonical key from an http.Header, is
// a hop-by-hop header a proxy must not forward.
func isHopByHop(k string) bool {
	switch k {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// drain discards a response that will not be delivered so the transport
// can reuse the connection.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

// readerFor wraps a body for http.NewRequest — a *bytes.Reader, so the
// request carries its Content-Length; nil for empty keeps bodyless
// semantics for GETs.
func readerFor(body []byte) io.Reader {
	if len(body) == 0 {
		return nil
	}
	return bytes.NewReader(body)
}

func (rt *Router) log(msg string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Info(msg, args...)
	}
}
