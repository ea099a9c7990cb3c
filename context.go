package queryvis

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/dot"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/svg"
	"repro/internal/telemetry"
)

// Pipeline stage names, as carried by StageError.Stage and used as
// fault-injection points (internal/faults registers one per stage).
const (
	StageParse   = string(faults.StageParse)
	StageResolve = string(faults.StageResolve)
	StageConvert = string(faults.StageConvert)
	StageTree    = string(faults.StageTree)
	StageBuild   = string(faults.StageBuild)
	StageVerify  = string(faults.StageVerify)
	StageRender  = string(faults.StageRender)
)

// StageError wraps a failure with the pipeline stage it occurred in, so
// callers can distinguish a parse error (the user's fault) from, say, a
// diagram-construction error without string matching. Unwrap exposes the
// underlying error for errors.Is/As — including context.DeadlineExceeded
// and *LimitError.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return e.Stage + ": " + e.Err.Error() }

func (e *StageError) Unwrap() error { return e.Err }

// InternalError is a panic converted to an error at the facade boundary:
// an internal invariant violation that, without the boundary, would have
// taken down the caller. It is never the user's fault.
type InternalError struct {
	Stage string
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in stage %s: %v", e.Stage, e.Value)
}

// panicBoundary converts a panic into an *InternalError through the
// pointed-to error. Deferred at every facade entry point, it guarantees
// that no internal invariant violation escapes as a panic.
func panicBoundary(stage string, errp *error) {
	if r := recover(); r != nil {
		*errp = &InternalError{Stage: stage, Value: r, Stack: debug.Stack()}
	}
}

// stageErr wraps non-nil errors with their stage; already-staged errors
// and limit errors pass through untouched.
func stageErr(stage string, err error) error {
	switch err.(type) {
	case *StageError, *LimitError:
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// FromSQLContext runs the full pipeline — parse, resolve, convert to
// TRC, build and optionally simplify the logic tree, construct the
// diagram — under a context and the Options' resource limits. With
// Options.Verify enabled it additionally proves the diagram correct by
// round-tripping it through inverse recovery, degrading per the ladder
// in verify.go when it cannot.
//
// Cancellation is cooperative at every stage: once ctx is done the
// pipeline returns promptly (well within 2× of a deadline even on
// pathologically deep inputs) with an error satisfying
// errors.Is(err, ctx.Err()). Limit violations surface as *LimitError,
// stage failures as *StageError, verification failures in strict mode as
// *VerifyError, and internal panics are contained at this boundary and
// returned as *InternalError — FromSQLContext never panics, whatever the
// input.
func FromSQLContext(ctx context.Context, sql string, s *Schema, opts Options) (*Result, error) {
	if opts.Tracer != nil {
		ctx = telemetry.WithTracer(ctx, opts.Tracer)
	}
	res, err := runPipeline(ctx, sql, s, opts)
	if opts.Verify == VerifyOff {
		if err != nil {
			return nil, err
		}
		res.VerifyStatus = VerifyStatusOff
		return res, nil
	}
	sp := telemetry.StartSpan(ctx, StageVerify)
	defer sp.End()
	out, verr := verifyOrDegrade(ctx, res, err, opts, sp)
	switch {
	case out != nil:
		if out.VerifyStatus != "" {
			sp.Annotate("status", out.VerifyStatus)
		}
		if out.Degraded != "" {
			sp.Annotate("rung", out.Degraded)
		}
	case verr != nil:
		var ve *VerifyError
		if errors.As(verr, &ve) {
			sp.Annotate("status", ve.Status)
		}
	}
	return out, verr
}

// runPipeline executes the forward pipeline, filling the Result stage by
// stage so that on failure the completed prefix survives alongside the
// error — the degradation ladder feeds on those partial artifacts. The
// returned Result is never nil; fields beyond the failed stage are zero.
// Its hook brackets every stage (span, fault point, stage error) and
// checks the limits the stage's artifact makes checkable.
func runPipeline(ctx context.Context, sql string, s *Schema, opts Options) (res *Result, err error) {
	res = &Result{limits: opts.Limits}
	defer panicBoundary("pipeline", &err)
	if lim := opts.Limits; lim != nil {
		if err := check(LimitQueryBytes, len(sql), lim.MaxQueryBytes); err != nil {
			return res, err
		}
	}
	popts := pipeline.Options{Simplify: opts.Simplify, KeepExistsBlocks: opts.KeepExistsBlocks}
	return res, pipeline.Run(ctx, &res.Artifacts, sql, s, popts, pipeline.Build,
		func(stage string, run func() error) error {
			return bracket(ctx, stage, func() error {
				if err := run(); err != nil {
					return err
				}
				return res.limits.checkStage(stage, &res.Artifacts)
			})
		})
}

// bracket runs one stage under its telemetry span (a no-op without a
// tracer on ctx) and behind its fault point, wrapping a failure with the
// stage. The span opens before the fault point and closes on every exit,
// panics included, so a trace shows exactly the stages entered.
func bracket(ctx context.Context, stage string, run func() error) error {
	sp := telemetry.StartSpan(ctx, stage)
	defer sp.End()
	if err := faults.Fire(ctx, faults.Stage(stage)); err != nil {
		return stageErr(stage, err)
	}
	if err := run(); err != nil {
		return stageErr(stage, err)
	}
	return nil
}

// DOTContext renders the diagram as a GraphViz program under a context:
// rendering is cancelable, its size is bounded by the pipeline's
// MaxOutputBytes limit, and panics are contained at this boundary.
func (r *Result) DOTContext(ctx context.Context, o DOTOptions) (string, error) {
	return r.render(ctx, "dot", o)
}

// SVGContext renders the diagram as a standalone SVG document under a
// context, with the same cancellation, output-size, and panic guarantees
// as DOTContext.
func (r *Result) SVGContext(ctx context.Context) (string, error) {
	return r.render(ctx, "svg", DOTOptions{})
}

// TextContext renders the plain-text diagram under the pipeline's
// output-size limit and panic boundary.
func (r *Result) TextContext(ctx context.Context) (string, error) {
	return r.render(ctx, "text", DOTOptions{})
}

// render is the one bracket every format renders in: the render stage's
// span and fault point, a panic boundary, and the MaxOutputBytes limit.
func (r *Result) render(ctx context.Context, format string, o DOTOptions) (out string, err error) {
	defer panicBoundary(StageRender, &err)
	if err := bracket(ctx, StageRender, func() (err error) {
		switch format {
		case "svg":
			out, err = svg.RenderContext(ctx, r.Diagram)
		case "text":
			if err = ctx.Err(); err == nil {
				out = dot.Text(r.Diagram)
			}
		default:
			out, err = dot.RenderContext(ctx, r.Diagram, o)
		}
		if err == nil && r.limits != nil {
			err = check(LimitOutputBytes, len(out), r.limits.MaxOutputBytes)
		}
		return err
	}); err != nil {
		return "", err
	}
	return out, nil
}
