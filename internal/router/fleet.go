package router

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The router's fleet-observability surface: GET /v1/traces assembles
// whole-fleet trace trees, GET /v1/fleet aggregates member health. Both
// are read paths built from scrapes — the hot proxy path records only
// the router's own span into a local ring and never blocks on a peer.

// fleetTraceItem is one /v1/traces result: the router's record with the
// serving instance's spans merged in (when resolvable) and the rendered
// tree. MergeError reports a failed instance scrape — the router's own
// span still renders, so a partial trace is still a usable trace.
type fleetTraceItem struct {
	telemetry.TraceRecord
	Tree       string `json:"tree"`
	MergeError string `json:"merge_error,omitempty"`
}

type fleetTracesResponse struct {
	Total  uint64           `json:"total"`
	Held   int              `json:"held"`
	Traces []fleetTraceItem `json:"traces"`
}

// fleetTraceLimit bounds an unfiltered /v1/traces response; targeted
// lookups (request_id / trace_id) merge instance spans, so the
// unfiltered listing serves router spans only and stays cheap.
const fleetTraceLimit = 32

// handleTraces serves the router's trace ring. Unfiltered, it lists the
// router's hop spans newest-first. Filtered by request_id or trace_id —
// the "where did my request go" lookup — it additionally scrapes
// /v1/traces?trace_id= on the instance that served the request and
// grafts the instance's span subtree (instance handler, dispatch,
// worker, pipeline stages) under the router's span, returning the one
// merged fleet-wide tree the tentpole promises.
func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		rt.fail(w, r, http.StatusMethodNotAllowed, "bad_request", "use GET")
		return
	}
	q := r.URL.Query()
	f := telemetry.TraceFilter{
		RequestID: q.Get("request_id"),
		TraceID:   q.Get("trace_id"),
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			rt.fail(w, r, http.StatusBadRequest, "bad_request", "min_ms must be a non-negative number")
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	limit := fleetTraceLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			rt.fail(w, r, http.StatusBadRequest, "bad_request", "limit must be a positive integer")
			return
		}
		limit = n
	}
	recs := rt.traces.Snapshot(f)
	if len(recs) > limit {
		recs = recs[:limit]
	}
	merge := f.RequestID != "" || f.TraceID != ""
	resp := fleetTracesResponse{
		Total:  rt.traces.Total(),
		Held:   rt.traces.Len(),
		Traces: make([]fleetTraceItem, len(recs)),
	}
	for i, rec := range recs {
		item := fleetTraceItem{TraceRecord: rec}
		if merge {
			if spans, err := rt.scrapeInstanceTrace(r.Context(), rec); err != nil {
				item.MergeError = err.Error()
			} else {
				item.Spans = append(append([]telemetry.Span(nil), item.Spans...), spans...)
			}
		}
		item.Tree = telemetry.FormatTree(item.Spans)
		resp.Traces[i] = item
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// scrapeInstanceTrace fetches the serving instance's spans for one
// router trace record. The instance URL comes from the router span's
// own "instance" annotation; records without one (shed, cache-shared,
// all-failed) have nothing to merge.
func (rt *Router) scrapeInstanceTrace(ctx context.Context, rec telemetry.TraceRecord) ([]telemetry.Span, error) {
	var instURL string
	for _, sp := range rec.Spans {
		if u := sp.Attr("instance"); u != "" {
			instURL = u
			break
		}
	}
	if instURL == "" {
		return nil, nil // nothing upstream served this trace
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		instURL+"/v1/traces?trace_id="+rec.TraceID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &scrapeError{instURL, resp.StatusCode}
	}
	var body struct {
		Traces []struct {
			Spans []telemetry.Span `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	var spans []telemetry.Span
	for _, t := range body.Traces {
		spans = append(spans, t.Spans...)
	}
	return spans, nil
}

type scrapeError struct {
	url    string
	status int
}

func (e *scrapeError) Error() string {
	return "scraping " + e.url + " answered HTTP " + strconv.Itoa(e.status)
}

// fleetMember is one ring member's scrape in the /v1/fleet aggregate.
type fleetMember struct {
	URL string `json:"url"`
	// Healthz is the member's own /v1/healthz body, verbatim; absent
	// when the scrape failed.
	Healthz json.RawMessage `json:"healthz,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// fleetResponse is the /v1/fleet body: the router's own state plus
// every member's healthz, so one endpoint answers "is the fleet healthy
// and where is time going." When a fleet supervisor is attached (see
// SetFleetStatus), its reconciliation status — desired members, the
// action log, budget denials — rides along, making this the one
// endpoint that reflects every reconcile action taken.
type fleetResponse struct {
	Router     State         `json:"router"`
	Members    []fleetMember `json:"members"`
	Supervisor any           `json:"supervisor,omitempty"`
}

// SetFleetStatus attaches a status callback — typically the fleet
// supervisor's Status method — whose result is embedded in every
// /v1/fleet response. The callback must be safe for concurrent use;
// pass nil to detach.
func (rt *Router) SetFleetStatus(fn func() any) {
	rt.fleetStatus.Store(&fn)
}

// handleFleet aggregates the fleet: the router's State (ring health,
// drain flags, stampede stats — every gauge healthz reads) and
// a concurrent healthz scrape of each current member over the probe
// client. A member that fails to answer reports its error in place, so
// a half-dead fleet still renders.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		rt.fail(w, r, http.StatusMethodNotAllowed, "bad_request", "use GET")
		return
	}
	tp := rt.topo.Load()
	resp := fleetResponse{
		Router:  rt.State(),
		Members: make([]fleetMember, len(tp.members)),
	}
	if fn := rt.fleetStatus.Load(); fn != nil && *fn != nil {
		resp.Supervisor = (*fn)()
	}
	var wg sync.WaitGroup
	for i, m := range tp.members {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			resp.Members[i] = rt.scrapeMember(r.Context(), url)
		}(i, m)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// scrapeMember fetches one member's healthz. A 503 body is still
// returned verbatim — an unhealthy instance's self-report is exactly
// what the fleet view is for.
func (rt *Router) scrapeMember(ctx context.Context, url string) fleetMember {
	fm := fleetMember{URL: url}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		fm.Error = err.Error()
		return fm
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		fm.Error = err.Error()
		return fm
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		fm.Error = err.Error()
		return fm
	}
	fm.Healthz = raw
	return fm
}
