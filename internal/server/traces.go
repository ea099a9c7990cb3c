package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// traceItem is one /v1/traces result: the raw record plus its rendered
// tree, so an operator with curl needs no client-side assembly.
type traceItem struct {
	telemetry.TraceRecord
	Tree string `json:"tree"`
}

// tracesResponse is the /v1/traces body.
type tracesResponse struct {
	Total  uint64      `json:"total"`
	Held   int         `json:"held"`
	Traces []traceItem `json:"traces"`
}

// defaultTraceLimit bounds an unfiltered /v1/traces response.
const defaultTraceLimit = 32

// handleTraces serves the process's trace ring as JSON, newest first.
// Query parameters: request_id, trace_id, min_ms (minimum total
// duration), limit. With telemetry disabled the
// route does not exist.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
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
	q := r.URL.Query()
	f := telemetry.TraceFilter{
		RequestID: q.Get("request_id"),
		TraceID:   q.Get("trace_id"),
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeAPIError(w, http.StatusBadRequest, apiError{
				Category: CatBadRequest, Message: "min_ms must be a non-negative number",
			})
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	limit := defaultTraceLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeAPIError(w, http.StatusBadRequest, apiError{
				Category: CatBadRequest, Message: "limit must be a positive integer",
			})
			return
		}
		limit = n
	}
	recs := s.traces.Snapshot(f)
	if len(recs) > limit {
		recs = recs[:limit]
	}
	resp := tracesResponse{
		Total:  s.traces.Total(),
		Held:   s.traces.Len(),
		Traces: make([]traceItem, len(recs)),
	}
	for i, rec := range recs {
		resp.Traces[i] = traceItem{TraceRecord: rec, Tree: telemetry.FormatTree(rec.Spans)}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
