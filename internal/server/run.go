package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	queryvis "repro"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/quarantine"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// This file is the one request path. Every /v1/diagram request, every
// /v1/interpret request and every /v1/diagrams:batch item that is not a
// cache hit becomes a job, and one function, run, executes the paper's
// pipeline on it (SQL → TRC → logic tree → diagram → verify) and returns
// a typed outcome. In-process the parent calls run directly; under
// process isolation a worker calls it (see Worker) and the outcome
// crosses the pool's pipe. Either way, once the outcome is back, the
// process that owns the listener alone counts its verdict, files its
// quarantine entry, inserts its cache entry and writes the HTTP reply.

// job is one run of the pipeline: the parent's decoded and validated
// request, and what the parent wants back.
type job struct {
	// Interpret asks for /v1/interpret's answer (reading and calculus)
	// instead of a diagram.
	Interpret bool           `json:"interpret,omitempty"`
	Req       diagramRequest `json:"req"`
	// Mode is the request's resolved verification mode.
	Mode queryvis.VerifyMode `json:"mode"`
	// ForCache marks a diagram build for the parent's cache: a result
	// that may be cached comes back as its entry.
	ForCache bool `json:"for_cache,omitempty"`
	// Quarantine says the parent keeps a failure corpus: a failure worth
	// filing comes back as its scrubbed entry.
	Quarantine bool `json:"quarantine,omitempty"`
	// FaultSeed is the request's injected fault plan (X-Fault-Seed),
	// rebuilt on the worker's side of the pipe.
	FaultSeed *int64 `json:"fault_seed,omitempty"`
	// workerFault is the injected worker fault (X-Worker-Fault). It rides
	// the frame envelope, since the worker acts it out before any job.
	workerFault string
}

// outcome is what one run answers: a classified failure (Status and
// Error) or exactly one of Diagram, Interpret and Entry, plus what the
// parent records about it.
type outcome struct {
	Status int       `json:"status,omitempty"`
	Error  *apiError `json:"error,omitempty"`

	Diagram   *diagramResponse   `json:"diagram,omitempty"`
	Interpret *interpretResponse `json:"interpret,omitempty"`
	// Entry answers a ForCache job whose result may be cached; the
	// response is shaped from it (see respondEntry).
	Entry *diagcache.Entry `json:"entry,omitempty"`

	// Verdict is the verification verdict to count: "" when the job's
	// mode was off or the pipeline stopped before a verdict.
	Verdict string `json:"verdict,omitempty"`
	// Quarantine is the scrubbed failure entry to file, pattern key
	// included; nil when the job did not ask or nothing failed.
	Quarantine *quarantine.Entry `json:"quarantine,omitempty"`
}

// err is a failed outcome as the error a handler writes. It is nil for
// a success.
func (o *outcome) err() error {
	if o.Error == nil {
		return nil
	}
	return &requestError{status: o.Status, ae: *o.Error, verdict: o.Verdict}
}

// runner is what run needs from the configuration: the built-in
// schemas, resolved once and shared read-only (the pipeline never
// mutates a schema), and the per-query limits. The parent holds one,
// and so does every worker.
type runner struct {
	schemas map[string]*schema.Schema
	limits  *queryvis.Limits // nil: unlimited
}

// newRunner resolves cfg, which has its defaults applied.
func newRunner(cfg Config) *runner {
	rn := &runner{schemas: make(map[string]*schema.Schema)}
	for _, name := range schema.BuiltinNames() {
		rn.schemas[name], _ = schema.ByName(name)
	}
	if !cfg.Unlimited {
		lim := cfg.Limits
		rn.limits = &lim
	}
	return rn
}

// run executes the pipeline for one job. The pipeline contains its own
// panics; this boundary contains the rest of run's, in either process,
// with the same internal error a handler panic gets.
func (rn *runner) run(ctx context.Context, j *job) (o *outcome) {
	defer func() {
		if recover() != nil {
			o = &outcome{Status: http.StatusInternalServerError, Error: &apiError{
				Category: CatInternal, Message: "internal error", Stage: "handler",
			}}
		}
	}()
	req := &j.Req
	res, err := queryvis.FromSQLContext(ctx, req.SQL, rn.schemas[req.Schema], queryvis.Options{
		Simplify: req.Simplify,
		Limits:   rn.limits,
		Verify:   j.Mode,
	})
	o = &outcome{}
	status := verifyOutcome(res, err)
	if j.Mode != queryvis.VerifyOff {
		o.Verdict = status
	}
	if j.Quarantine {
		o.Quarantine = quarantineEntry(ctx, req, res, err, status)
	}
	switch {
	case err != nil:
		o.fail(err)
	case j.Interpret:
		o.Interpret = interpretation(res, j.Mode)
	default:
		if j.ForCache && diagcache.CacheableStatus(res.VerifyStatus, res.Degraded) {
			// A rendering failure here serves the result uncached; the
			// render below degrades it as usual.
			if e, rerr := queryvis.BuildEntryContext(ctx, res); rerr == nil {
				o.Entry = e
				return o
			}
		}
		if o.Diagram, err = renderResult(ctx, req, res, j.Mode); err != nil {
			o.fail(err)
		}
	}
	return o
}

// fail records a pipeline error, classified.
func (o *outcome) fail(err error) {
	status, ae := classify(err)
	o.Status, o.Error = status, &ae
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

// quarantineEntry is the scrubbed corpus entry for a request that failed
// verification (including served-degraded responses) or tripped panic
// containment, nil for any other outcome. Deduplication lives in the
// store: re-filing a known failure is a no-op.
func quarantineEntry(ctx context.Context, req *diagramRequest, res *queryvis.Result, err error, status string) *quarantine.Entry {
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
			return nil // user faults, limits, timeouts: not corpus material
		}
		detail = err.Error()
	case status == "" || status == queryvis.VerifyStatusOff ||
		status == queryvis.VerifyStatusVerified:
		return nil
	default:
		stage, detail, rung = status, res.VerifyDetail, res.Degraded
	}

	e := &quarantine.Entry{
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
	return e
}

// interpretation shapes a result into the /v1/interpret answer.
func interpretation(res *queryvis.Result, mode queryvis.VerifyMode) *interpretResponse {
	resp := &interpretResponse{
		Interpretation: res.Interpretation,
		TRC:            res.TRC.String(),
		VerifyStatus:   reportedStatus(mode, res.VerifyStatus),
		Degraded:       res.Degraded,
	}
	// A result degraded to the TRC rung carries no tree; the calculus
	// text above is the whole answer.
	if res.Tree != nil && res.Degraded != queryvis.RungTRC {
		resp.Tree = res.Tree.String()
		resp.NestingDepth = res.Tree.MaxDepth()
	}
	return resp
}

// exec runs one job — here, or in a worker when a pool is attached —
// and then does what only the process that owns the listener does with
// its outcome: count the verdict and file the quarantine entry. The
// error is the dispatch's (a worker that died, a pool that closed, a
// dead context); everything the pipeline decided is in the outcome.
func (s *Server) exec(ctx context.Context, j *job) (*outcome, error) {
	var o *outcome
	if s.cfg.Pool == nil {
		o = s.runner.run(ctx, j)
	} else {
		var err error
		if o, err = s.dispatch(ctx, j); err != nil {
			return nil, err
		}
	}
	s.recordVerifyOutcome(o.Verdict)
	if o.Quarantine != nil && s.cfg.Quarantine != nil {
		_, _, _ = s.cfg.Quarantine.Add(*o.Quarantine) // best-effort: serving beats filing
	}
	return o, nil
}

// dispatch runs one job in a worker and grafts the worker's spans into
// this request's trace. The dispatch span brackets queueing and the
// frame round trip; the worker's span subtree parents under it.
func (s *Server) dispatch(ctx context.Context, j *job) (*outcome, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return nil, fmt.Errorf("encode job: %w", err)
	}
	req := workerpool.Request{
		Job:       body,
		RequestID: telemetry.RequestIDFrom(ctx),
		Fault:     j.workerFault,
	}
	tr := telemetry.TracerFrom(ctx)
	sp := tr.Start(spanDispatch)
	if tr != nil {
		req.Trace = &telemetry.TraceContext{TraceID: tr.TraceID(), SpanID: sp.ID(), Sampled: true}
	}
	resp, err := s.cfg.Pool.Do(ctx, req)
	sp.End()
	if err != nil {
		return nil, err
	}
	tr.Merge(resp.Spans)
	o := &outcome{}
	if err := json.Unmarshal(resp.Outcome, o); err != nil {
		return nil, fmt.Errorf("decode worker outcome: %w", err)
	}
	return o, nil
}

// Worker returns the job function a pool worker runs (see
// workerpool.RunWorker): decode the parent's job, run the pipeline on
// it under cfg's limits and encode the outcome. A worker holds no cache,
// counts nothing and files nothing; its parent does all three with the
// outcome.
func Worker(cfg Config) workerpool.Func {
	rn := newRunner(cfg.WithDefaults())
	return func(ctx context.Context, raw []byte) ([]byte, error) {
		var j job
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("decode job: %w", err)
		}
		if j.FaultSeed != nil {
			ctx = faults.WithPlan(ctx, faults.NewPlan(*j.FaultSeed))
		}
		o := rn.run(ctx, &j)
		o.fitFrame(&j)
		return json.Marshal(o)
	}
}

// fitFrame readies a worker's outcome for the pipe: an entry that does
// not fit a frame (see entryFits) stays in the worker, and the diagram
// it answers crosses instead, for the parent to serve uncached.
func (o *outcome) fitFrame(j *job) {
	if o.Entry != nil && !entryFits(o.Entry) {
		o.Diagram, o.Entry = respondEntry(&j.Req, o.Entry, j.Mode), nil
	}
}

// entryFits keeps a response frame with its entry well inside
// workerpool.MaxFrameBytes: JSON escaping can double rendered markup,
// so an entry whose renderings together pass a quarter of the cap does
// not cross.
func entryFits(e *diagcache.Entry) bool {
	return len(e.DOT)+len(e.SVG)+len(e.Text)+len(e.Interpretation) <= workerpool.MaxFrameBytes/4
}
