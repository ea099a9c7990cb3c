package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	queryvis "repro"
	"repro/internal/faults"
	"repro/internal/workerpool"
)

// Category classifies every non-200 response into a machine-readable
// error taxonomy. Clients branch on the category, not the message.
type Category string

const (
	// CatBadRequest: the request envelope is wrong — malformed JSON,
	// unknown schema name, unsupported format field. HTTP 400.
	CatBadRequest Category = "bad_request"
	// CatTooLarge: the request body exceeded the configured size cap.
	// HTTP 413.
	CatTooLarge Category = "too_large"
	// CatParse: the SQL text does not parse in the supported fragment.
	// HTTP 422.
	CatParse Category = "parse"
	// CatSemantic: the SQL parsed but failed resolution, TRC conversion,
	// or diagram construction (unknown table, ambiguous column, predicate
	// joining unrelated blocks, ...). HTTP 422.
	CatSemantic Category = "semantic"
	// CatLimit: a resource limit was exceeded; the Limit field names it.
	// HTTP 422.
	CatLimit Category = "limit"
	// CatTimeout: the per-request deadline expired mid-pipeline. HTTP 504.
	CatTimeout Category = "timeout"
	// CatCanceled: the client went away and the pipeline stopped. HTTP
	// 499 (nginx convention; Go has no constant for it).
	CatCanceled Category = "canceled"
	// CatOverloaded: the concurrency limiter shed this request; retry
	// after the Retry-After header. HTTP 429.
	CatOverloaded Category = "overloaded"
	// CatInternal: an internal invariant violation (contained panic) or
	// injected fault. HTTP 500.
	CatInternal Category = "internal"
	// CatVerifyFailed: a verify=strict request whose diagram could not be
	// proven correct (mismatch, ambiguity, budget exhaustion, or an
	// internal verification fault). The SQL itself was fine — retry with
	// verify=degrade to get the best servable artifact. HTTP 500.
	CatVerifyFailed Category = "verify_failed"
	// CatWorkerCrashed: under process isolation the worker serving this
	// request died (crash, OOM kill, garbage on its pipe) and so did the
	// one transparent retry. The daemon itself is healthy and has already
	// respawned the workers; the request is safe to retry. HTTP 503.
	CatWorkerCrashed Category = "worker_crashed"
)

// statusCanceled is nginx's non-standard 499 "client closed request";
// the client is gone, so the code is for logs and tests only.
const statusCanceled = 499

// apiError is the wire form of one error.
type apiError struct {
	Category Category `json:"category"`
	Message  string   `json:"message"`
	// Limit names the exceeded bound for CatLimit (e.g.
	// "max_nesting_depth").
	Limit string `json:"limit,omitempty"`
	// Stage names the pipeline stage for CatParse/CatSemantic/CatInternal
	// when known (e.g. "resolve").
	Stage string `json:"stage,omitempty"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// classify maps a pipeline error to its HTTP status and wire form. The
// order matters: limit and context errors are checked before stage
// wrapping so that, e.g., a deadline that expires inside the resolve
// stage still reports as a timeout.
func classify(err error) (int, apiError) {
	var le *queryvis.LimitError
	if errors.As(err, &le) {
		return http.StatusUnprocessableEntity, apiError{
			Category: CatLimit, Message: err.Error(), Limit: le.Limit,
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, apiError{
			Category: CatTimeout, Message: "request deadline exceeded",
		}
	}
	if errors.Is(err, context.Canceled) {
		return statusCanceled, apiError{
			Category: CatCanceled, Message: "request canceled",
		}
	}
	var ve *queryvis.VerifyError
	if errors.As(err, &ve) {
		return http.StatusInternalServerError, apiError{
			Category: CatVerifyFailed,
			Message:  err.Error(),
			Stage:    queryvis.StageVerify,
		}
	}
	var ie *queryvis.InternalError
	if errors.As(err, &ie) {
		// The panic value and stack stay server-side; the body only admits
		// the invariant violation happened.
		return http.StatusInternalServerError, apiError{
			Category: CatInternal, Message: "internal error", Stage: ie.Stage,
		}
	}
	if errors.Is(err, faults.ErrInjected) {
		se := &queryvis.StageError{}
		stage := ""
		if errors.As(err, &se) {
			stage = se.Stage
		}
		return http.StatusInternalServerError, apiError{
			Category: CatInternal, Message: err.Error(), Stage: stage,
		}
	}
	var we *workerpool.WorkerError
	if errors.As(err, &we) {
		if we.Kind == workerpool.KindTimeout {
			return http.StatusGatewayTimeout, apiError{
				Category: CatTimeout,
				Message:  "worker overran the request deadline and was killed",
				Stage:    "worker",
			}
		}
		return http.StatusServiceUnavailable, apiError{
			Category: CatWorkerCrashed,
			Message: fmt.Sprintf("worker %s; retried once on a fresh worker without success — safe to retry",
				we.Kind),
			Stage: "worker",
		}
	}
	if errors.Is(err, workerpool.ErrPoolClosed) {
		return http.StatusServiceUnavailable, apiError{
			Category: CatOverloaded, Message: "server is draining; retry against a healthy instance",
		}
	}
	var se *queryvis.StageError
	if errors.As(err, &se) {
		cat := CatSemantic
		if se.Stage == queryvis.StageParse {
			cat = CatParse
		}
		return http.StatusUnprocessableEntity, apiError{
			Category: cat, Message: err.Error(), Stage: se.Stage,
		}
	}
	return http.StatusInternalServerError, apiError{
		Category: CatInternal, Message: err.Error(),
	}
}

// writeError emits the JSON error body for err.
func writeError(w http.ResponseWriter, err error) {
	status, ae := classify(err)
	writeAPIError(w, status, ae)
}

func writeAPIError(w http.ResponseWriter, status int, ae apiError) {
	// Every error response funnels through here; note the category on the
	// instrument wrapper's recorder so it lands in the error counters.
	if rec, ok := w.(*statusRecorder); ok {
		rec.category = ae.Category
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: ae})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
