package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// getTraces fetches /v1/traces with the given query string and decodes
// the body.
func getTraces(t *testing.T, ts *httptest.Server, query string) (int, tracesResponse) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/traces" + query)
	if err != nil {
		t.Fatalf("GET /v1/traces%s: %v", query, err)
	}
	defer resp.Body.Close()
	var tr tracesResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("decode /v1/traces%s: %v", query, err)
		}
	}
	return resp.StatusCode, tr
}

// spanNames counts spans by name.
func spanNames(spans []telemetry.Span) map[string]int {
	m := make(map[string]int)
	for _, sp := range spans {
		m[sp.Name]++
	}
	return m
}

// findSpan returns the first span with the given name, or nil.
func findSpan(spans []telemetry.Span, name string) *telemetry.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// TestTracesEndpoint drives one traced request through the server and
// exercises the whole /v1/traces query surface: the record itself (root
// span, stage spans parented under it, rendered tree), every filter,
// and the input validation.
func TestTracesEndpoint(t *testing.T) {
	ts, _ := newMetricsServer(t, Config{CacheEntries: 64})
	_, hdr, _ := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "degrade"),
		map[string]string{"X-Request-ID": "trace-ep-1"})
	traceID := hdr.Get(telemetry.TraceIDHeader)
	if len(traceID) != 16 {
		t.Fatalf("%s = %q, want a 16-hex trace id", telemetry.TraceIDHeader, traceID)
	}

	st, tr := getTraces(t, ts, "")
	if st != http.StatusOK || tr.Total != 1 || tr.Held != 1 || len(tr.Traces) != 1 {
		t.Fatalf("unfiltered /v1/traces = %d total=%d held=%d n=%d, want 200/1/1/1",
			st, tr.Total, tr.Held, len(tr.Traces))
	}
	rec := tr.Traces[0]
	if rec.TraceID != traceID || rec.RequestID != "trace-ep-1" {
		t.Fatalf("trace record ids = %q/%q, want %q/trace-ep-1", rec.TraceID, rec.RequestID, traceID)
	}
	names := spanNames(rec.Spans)
	if names[spanInstance] != 1 {
		t.Fatalf("instance root spans = %d, want exactly 1 (spans: %v)", names[spanInstance], names)
	}
	// In-process pipeline: no pool dispatch, no worker, no router hop.
	for _, absent := range []string{spanDispatch, spanWorker, "router"} {
		if names[absent] != 0 {
			t.Errorf("unexpected %q span for an in-process request: %v", absent, names)
		}
	}
	root := findSpan(rec.Spans, spanInstance)
	if root.Parent != "" {
		t.Errorf("instance root has parent %q, want none for a direct request", root.Parent)
	}
	for _, st := range faults.Stages {
		stage := string(st)
		sp := findSpan(rec.Spans, stage)
		if sp == nil {
			t.Errorf("trace missing stage span %q", stage)
			continue
		}
		if sp.Parent != root.ID {
			t.Errorf("stage %q parented under %q, want the instance root %q", stage, sp.Parent, root.ID)
		}
	}
	if !strings.HasPrefix(rec.Tree, "instance ") || !strings.Contains(rec.Tree, "\n  parse ") {
		t.Errorf("rendered tree lacks the instance root / indented stages:\n%s", rec.Tree)
	}

	// Every filter, positive and negative.
	if st, tr := getTraces(t, ts, "?request_id=trace-ep-1"); st != 200 || len(tr.Traces) != 1 {
		t.Errorf("request_id filter = %d/%d traces, want 200/1", st, len(tr.Traces))
	}
	if st, tr := getTraces(t, ts, "?request_id=no-such-request"); st != 200 || len(tr.Traces) != 0 {
		t.Errorf("request_id miss = %d/%d traces, want 200/0", st, len(tr.Traces))
	}
	if st, tr := getTraces(t, ts, "?trace_id="+traceID); st != 200 || len(tr.Traces) != 1 {
		t.Errorf("trace_id filter = %d/%d traces, want 200/1", st, len(tr.Traces))
	}
	if st, tr := getTraces(t, ts, "?min_ms=0.0001"); st != 200 || len(tr.Traces) != 1 {
		t.Errorf("satisfied min_ms = %d/%d traces, want 200/1", st, len(tr.Traces))
	}
	if st, tr := getTraces(t, ts, "?min_ms=600000"); st != 200 || len(tr.Traces) != 0 {
		t.Errorf("ten-minute min_ms = %d/%d traces, want 200/0", st, len(tr.Traces))
	}

	// limit truncates newest-first; Total keeps counting.
	postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "off"),
		map[string]string{"X-Request-ID": "trace-ep-2"})
	if st, tr := getTraces(t, ts, "?limit=1"); st != 200 || tr.Total != 2 ||
		len(tr.Traces) != 1 || tr.Traces[0].RequestID != "trace-ep-2" {
		t.Errorf("limit=1 = %d total=%d, traces=%+v; want the newest record only", st, tr.Total, tr.Traces)
	}

	// Input validation.
	for _, q := range []string{"?min_ms=-1", "?min_ms=abc", "?limit=0", "?limit=abc"} {
		if st, _ := getTraces(t, ts, q); st != http.StatusBadRequest {
			t.Errorf("GET /v1/traces%s = %d, want 400", q, st)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/traces", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/traces = %d, want 405", resp.StatusCode)
	}
}

// TestTracesBatchItems: every batch item gets its own span subtree —
// an "item" span carrying the index, with the item's pipeline stages
// nested beneath it — all inside the one request trace.
func TestTracesBatchItems(t *testing.T) {
	ts, _ := newMetricsServer(t, Config{})
	postFull(t, ts.Client(), ts.URL+"/v1/diagrams:batch", map[string]any{
		"schema": "beers",
		"verify": "off",
		"items": []map[string]any{
			{"sql": corpus.Fig1UniqueSet},
			{"sql": corpus.Fig3QSome},
		},
	}, map[string]string{"X-Request-ID": "batch-trace-1"})

	st, tr := getTraces(t, ts, "?request_id=batch-trace-1")
	if st != 200 || len(tr.Traces) != 1 {
		t.Fatalf("batch trace lookup = %d/%d traces, want 200/1", st, len(tr.Traces))
	}
	spans := tr.Traces[0].Spans
	names := spanNames(spans)
	if names[spanItem] != 2 {
		t.Fatalf("item spans = %d, want one per batch item (spans: %v)", names[spanItem], names)
	}
	root := findSpan(spans, spanInstance)
	if root == nil {
		t.Fatal("batch trace missing its instance root")
	}
	itemIDs := map[string]string{} // span id -> index attr
	for _, sp := range spans {
		if sp.Name != spanItem {
			continue
		}
		if sp.Parent != root.ID {
			t.Errorf("item span parented under %q, want the instance root", sp.Parent)
		}
		itemIDs[sp.ID] = sp.Attr("index")
	}
	if itemIDs == nil || len(itemIDs) != 2 {
		t.Fatalf("item spans not distinct: %v", itemIDs)
	}
	// Each item ran its own pipeline: two parse spans, each under a
	// different item span.
	parseParents := map[string]bool{}
	for _, sp := range spans {
		if sp.Name == queryvis.StageParse {
			parseParents[sp.Parent] = true
		}
	}
	if len(parseParents) != 2 {
		t.Fatalf("parse spans under %d distinct parents, want 2 (one per item)", len(parseParents))
	}
	for parent := range parseParents {
		if _, ok := itemIDs[parent]; !ok {
			t.Errorf("parse span parented under %q, not an item span", parent)
		}
	}
}

// TestTracesDisabled: with telemetry off there is no ring and no route.
func TestTracesDisabled(t *testing.T) {
	ts := newTestServer(t, Config{DisableTelemetry: true})
	resp, err := ts.Client().Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/traces with telemetry disabled = %d, want 404", resp.StatusCode)
	}
}
