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

// poolDispatch builds the process-isolated handler for one endpoint: the
// request body is read (under the parent's size cap), shipped to an idle
// worker over the pool's framed pipe protocol, and the worker's verbatim
// HTTP response — status, headers, body — is copied back to the client.
// The parent keeps the envelope guards (method check, load shedding,
// deadline, body cap, panic boundary, instrumentation) while everything
// that parses or executes untrusted SQL happens inside a sacrificial
// child.
func (s *Server) poolDispatch(endpoint string) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return &requestError{http.StatusRequestEntityTooLarge, apiError{
					Category: CatTooLarge,
					Message:  fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				}}
			}
			return err
		}

		req := workerpool.Request{
			Endpoint: endpoint,
			Body:     body,
			Header:   map[string]string{},
		}
		// Allow-listed header forwarding: the request ID for log
		// correlation across the process boundary, and — only on listeners
		// that opted into fault injection — the chaos headers. The ID comes
		// from the context (instrument minted one when the client sent
		// none), falling back to the raw header for untraced listeners.
		rid := telemetry.RequestIDFrom(r.Context())
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
			if dl, hasDL := r.Context().Deadline(); hasDL {
				req.Header[telemetry.DeadlineHeader] = telemetry.FormatDeadlineMS(time.Until(dl))
			}
		}

		// The dispatch span brackets queueing + the frame round trip; its
		// ID rides to the worker in the trace header so the worker's span
		// subtree parents under it. The pool stamps the same header map
		// onto every passenger of a coalesced batch frame, so followers
		// carry their own trace context, not the leader's.
		tr := telemetry.TracerFrom(r.Context())
		sp := tr.Start(spanDispatch)
		if tr != nil {
			tc := telemetry.TraceContext{TraceID: tr.TraceID(), SpanID: sp.ID(), Sampled: true}
			req.Header[telemetry.TraceHeader] = tc.Header()
		}

		// Route by body: repeats of one request land on the same worker,
		// concentrating its private diagram cache.
		resp, err := s.cfg.Pool.DoAffinity(r.Context(), req, string(body))
		sp.End()
		if err != nil {
			return err
		}
		// Graft the worker-side spans (its "worker" root plus the pipeline
		// stages) into this request's trace.
		tr.Merge(resp.Spans)
		for k, v := range resp.Header {
			// The recorder recomputes framing; a stale worker-side length
			// would corrupt the reply.
			if k == "Content-Length" {
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
		return nil
	}
}
