package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// Under process isolation everything that parses or executes untrusted
// SQL happens inside a sacrificial child: a request goes to a worker over
// the pool's framed pipe protocol, and the worker's verbatim HTTP
// response — status, headers, body — is copied back to the client.

// poolDispatch builds the process-isolated handler for an endpoint the
// parent does not decode (/v1/interpret): the request body is read
// under the parent's size cap and shipped to a worker as is.
func (s *Server) poolDispatch(endpoint string) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return s.fail(w, &requestError{http.StatusRequestEntityTooLarge, apiError{
					Category: CatTooLarge,
					Message:  fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				}})
			}
			return err
		}
		resp, err := s.dispatch(r, endpoint, body, false)
		if err != nil {
			return err
		}
		s.recordVerifyOutcome(resp.Header[headerVerifyStatus])
		writeWorkerResponse(w, resp)
		return nil
	}
}

// dispatch sends one request body to a worker and grafts the worker's
// spans into this request's trace. With wantEntry the worker also
// returns the cache entry of a result that may be cached.
func (s *Server) dispatch(r *http.Request, endpoint string, body []byte, wantEntry bool) (*workerpool.Response, error) {
	ctx := r.Context()
	req := workerpool.Request{
		Endpoint:  endpoint,
		Body:      body,
		Header:    map[string]string{},
		WantEntry: wantEntry,
	}
	// Allow-listed header forwarding: the request ID for log
	// correlation across the process boundary, and — only on listeners
	// that opted into fault injection — the chaos headers. The ID comes
	// from the context (instrument minted one when the client sent
	// none), falling back to the raw header for untraced listeners.
	rid := telemetry.RequestIDFrom(ctx)
	if rid == "" {
		rid = r.Header.Get("X-Request-ID")
	}
	if rid != "" {
		req.Header["X-Request-ID"] = rid
	}
	if s.cfg.AllowFaultInjection {
		for _, h := range []string{"X-Fault-Seed", faults.HeaderWorkerFault} {
			if v := r.Header.Get(h); v != "" {
				req.Header[h] = v
			}
		}
	}
	// A caller-advertised deadline budget rides the frame re-stamped
	// with what remains — guarded() already shrank this request's
	// context to it, and dispatch derives the worker kill-timer from
	// the context, so the header here is the honest audit trail of
	// what the worker was given, not the enforcement mechanism.
	if _, ok := telemetry.ParseDeadlineMS(r.Header.Get(telemetry.DeadlineHeader)); ok {
		if dl, hasDL := ctx.Deadline(); hasDL {
			req.Header[telemetry.DeadlineHeader] = telemetry.FormatDeadlineMS(time.Until(dl))
		}
	}

	// The dispatch span brackets queueing + the frame round trip; its
	// ID rides to the worker in the trace header so the worker's span
	// subtree parents under it.
	tr := telemetry.TracerFrom(ctx)
	sp := tr.Start(spanDispatch)
	if tr != nil {
		tc := telemetry.TraceContext{TraceID: tr.TraceID(), SpanID: sp.ID(), Sampled: true}
		req.Header[telemetry.TraceHeader] = tc.Header()
	}
	resp, err := s.cfg.Pool.Do(ctx, req)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Graft the worker-side spans (its "worker" root plus the pipeline
	// stages) into this request's trace.
	tr.Merge(resp.Spans)
	return resp, nil
}

// writeWorkerResponse copies a worker's reply to the client.
func writeWorkerResponse(w http.ResponseWriter, resp *workerpool.Response) {
	for k, v := range resp.Header {
		// The recorder recomputes framing; a stale worker-side length
		// would corrupt the reply. The answer identity is the parent's,
		// which is what the router sees in probes.
		if k == "Content-Length" || k == headerBuild {
			continue
		}
		w.Header().Set(k, v)
	}
	if resp.Status >= 400 {
		// Surface the worker's error category into this process's error
		// counters, so /v1/metrics tells one story regardless of where
		// the request ran.
		var eb errorBody
		if json.Unmarshal(resp.Body, &eb) == nil && eb.Error.Category != "" {
			if rec, ok := w.(*statusRecorder); ok {
				rec.category = eb.Error.Category
			}
		}
	}
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}
