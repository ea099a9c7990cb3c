package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// POST /v1/diagrams:batch renders many queries in one round trip with
// per-item status: the envelope is 200 whenever the batch itself is
// well-formed, and each item independently succeeds or fails with the
// same taxonomy the single endpoint uses. Repeated items amortize to
// one pipeline run through the cache (the first builds, the rest hit);
// the endpoint's reason to exist is bulk repository rendering, the
// paper's Section 1 browsing use case.

// batchRequest is the body of /v1/diagrams:batch. Top-level fields are
// defaults every item inherits unless it sets its own.
type batchRequest struct {
	Schema   string      `json:"schema,omitempty"`
	Simplify bool        `json:"simplify,omitempty"`
	Format   string      `json:"format,omitempty"`
	Verify   string      `json:"verify,omitempty"`
	Items    []batchItem `json:"items"`
}

// batchItem is one query; zero fields fall back to the batch defaults.
type batchItem struct {
	SQL      string `json:"sql"`
	Schema   string `json:"schema,omitempty"`
	Simplify *bool  `json:"simplify,omitempty"`
	Format   string `json:"format,omitempty"`
	Verify   string `json:"verify,omitempty"`
}

// batchItemResult mirrors one single-endpoint response: Result on
// success, Error on failure, never both. Cache reports the item's cache
// disposition ("hit"/"miss", empty when caching is off or bypassed) —
// the per-item form of the X-QueryVis-Cache header.
type batchItemResult struct {
	Status int              `json:"status"`
	Result *diagramResponse `json:"result,omitempty"`
	Error  *apiError        `json:"error,omitempty"`
	Cache  string           `json:"cache,omitempty"`
}

type batchResponse struct {
	Items     []batchItemResult `json:"items"`
	ElapsedMS int64             `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	started := time.Now()
	var breq batchRequest
	if err := s.decode(r, &breq); err != nil {
		return s.fail(w, err)
	}
	if len(breq.Items) == 0 {
		return s.fail(w, &requestError{status: http.StatusBadRequest, ae: apiError{
			Category: CatBadRequest, Message: `missing or empty "items" field`,
		}})
	}
	if len(breq.Items) > s.cfg.MaxBatchItems {
		return s.fail(w, &requestError{status: http.StatusRequestEntityTooLarge, ae: apiError{
			Category: CatTooLarge,
			Message: fmt.Sprintf("batch of %d items exceeds the %d-item cap",
				len(breq.Items), s.cfg.MaxBatchItems),
		}})
	}

	resp := batchResponse{Items: make([]batchItemResult, len(breq.Items))}
	for i := range breq.Items {
		// Items run sequentially under the request's single deadline; the
		// shared semaphore slot is the unit of admission, not the item.
		ctx, finish := itemContext(r.Context(), i)
		resp.Items[i] = s.serveBatchItem(ctx, r, &breq, &breq.Items[i])
		finish()
	}
	resp.ElapsedMS = time.Since(started).Milliseconds()
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// itemContext derives the per-item observability identity: request ID
// "<batch-rid>#<index>" so each item logs and traces under its own ID
// (not just the envelope's), and an "item" span anchoring the item's
// stage spans as a distinct subtree of the batch trace. The items run
// sequentially, so re-anchoring the tracer's parent for the item's
// duration is race-free; finish ends the span and restores the parent.
func itemContext(ctx context.Context, i int) (context.Context, func()) {
	if rid := telemetry.RequestIDFrom(ctx); rid != "" {
		ctx = telemetry.WithRequestID(ctx, fmt.Sprintf("%s#%d", rid, i))
	}
	tr := telemetry.TracerFrom(ctx)
	if tr == nil {
		return ctx, func() {}
	}
	old := tr.Parent()
	sp := tr.Start(spanItem)
	sp.Annotate("index", strconv.Itoa(i))
	tr.SetParent(sp.ID())
	return ctx, func() {
		sp.End()
		tr.SetParent(old)
	}
}

// serveBatchItem resolves one item under its own context, folding
// every failure — envelope validation, pipeline errors, an
// already-exhausted batch deadline — into the item's own status and
// error body.
func (s *Server) serveBatchItem(ctx context.Context, r *http.Request, breq *batchRequest, it *batchItem) batchItemResult {
	if err := ctx.Err(); err != nil {
		// The batch deadline died on an earlier item; every remaining item
		// reports its own well-formed timeout instead of a truncated reply.
		status, ae := classify(err)
		return batchItemResult{Status: status, Error: &ae}
	}
	req := diagramRequest{
		SQL:      it.SQL,
		Schema:   firstNonEmpty(it.Schema, breq.Schema),
		Simplify: breq.Simplify,
		Format:   firstNonEmpty(it.Format, breq.Format),
		Verify:   firstNonEmpty(it.Verify, breq.Verify),
	}
	if it.Simplify != nil {
		req.Simplify = *it.Simplify
	}
	j, err := s.newJob(r, req)
	if err != nil {
		return batchItemError(err)
	}
	sv, err := s.serveDiagram(ctx, j, time.Now())
	if err != nil {
		return batchItemError(err)
	}
	return batchItemResult{Status: http.StatusOK, Result: &sv.resp, Cache: sv.cache}
}

// batchItemError maps an item failure onto its wire form, reusing the
// envelope statuses for requestErrors and the pipeline taxonomy for the
// rest.
func batchItemError(err error) batchItemResult {
	if re, ok := err.(*requestError); ok {
		ae := re.ae
		return batchItemResult{Status: re.status, Error: &ae}
	}
	status, ae := classify(err)
	return batchItemResult{Status: status, Error: &ae}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
