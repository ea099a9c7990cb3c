package queryvis

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/inverse"
	"repro/internal/logictree"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/trc"
)

// This file turns the paper's central formal result into a runtime
// guardrail. Proposition 5.1 (Appendix B) states that every valid
// diagram maps back to exactly one logic tree; internal/inverse makes
// that executable. Verify mode exploits it: after building a diagram the
// pipeline recovers its logic tree and demands it match the forward
// tree, so a wrong diagram can never ship silently. When verification
// cannot succeed — ambiguity, mismatch, timeout, or an internal fault —
// the pipeline walks a degradation ladder instead of failing blankly:
//
//	rung 1  simplified ∀∃ diagram   (the paper's most readable form)
//	rung 2  unsimplified ∄-form diagram
//	rung 3  TRC text rendering      (Fig. 9 style; no diagram machinery)
//	rung 4  structured error
//
// Each rung requires strictly less of the pipeline than the one above,
// and every degraded result is flagged via Result.Degraded and
// Result.VerifyStatus — the service never serves an unflagged artifact it
// could not stand behind.

// VerifyMode selects how FromSQLContext treats diagram verification.
type VerifyMode int

const (
	// VerifyOff skips verification (the historical behavior).
	VerifyOff VerifyMode = iota
	// VerifyDegrade verifies and, on any failure, serves the highest
	// reachable degradation rung with an honest status instead of erroring.
	VerifyDegrade
	// VerifyStrict verifies and fails the pipeline with a *VerifyError on
	// any verification failure. Pipeline errors pass through unchanged.
	VerifyStrict
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyDegrade:
		return "degrade"
	case VerifyStrict:
		return "strict"
	}
	return "off"
}

// ParseVerifyMode maps the wire forms "off", "degrade", "strict" (and ""
// meaning off) to a VerifyMode.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "", "off":
		return VerifyOff, nil
	case "degrade":
		return VerifyDegrade, nil
	case "strict":
		return VerifyStrict, nil
	}
	return VerifyOff, fmt.Errorf("unknown verify mode %q; one of off, degrade, strict", s)
}

// Verification outcomes, as carried by Result.VerifyStatus and the
// service's verify_status response field.
const (
	// VerifyStatusOff: verification was not requested.
	VerifyStatusOff = "off"
	// VerifyStatusVerified: the diagram round-tripped to a logic tree
	// canonically equal to the forward tree.
	VerifyStatusVerified = "verified"
	// VerifyStatusSkipped: verification was bypassed; the artifact is
	// unverified but flagged. Nothing in this module produces it; the
	// name stays for clients that match on it.
	VerifyStatusSkipped = "skipped"
	// VerifyStatusMismatch: recovery succeeded but produced a different
	// tree — the diagram does not mean what the query says.
	VerifyStatusMismatch = "mismatch"
	// VerifyStatusAmbiguous: the diagram admits zero or several logic
	// trees (an unambiguity violation).
	VerifyStatusAmbiguous = "ambiguous"
	// VerifyStatusTimeout: the context expired during verification.
	VerifyStatusTimeout = "timeout"
	// VerifyStatusError: verification could not run to a verdict (internal
	// fault, contained panic, unusable artifacts, or a search stopped by
	// the inverse package's node bound, which only degenerate diagrams
	// could reach).
	VerifyStatusError = "error"
)

// Degradation-ladder rung names, as carried by Result.Degraded and the
// X-QueryVis-Degraded response header.
const (
	RungSimplified = "simplified"
	RungExistsForm = "exists_form"
	RungTRC        = "trc"
)

// VerifyError is the strict-mode verdict: the diagram could not be
// proven correct, and Options.Verify == VerifyStrict forbids degrading.
type VerifyError struct {
	Status string // the VerifyStatus* failure constant
	Err    error  // underlying cause; may be nil for a pure mismatch
}

func (e *VerifyError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("diagram verification failed (%s): %v", e.Status, e.Err)
	}
	return fmt.Sprintf("diagram verification failed (%s)", e.Status)
}

func (e *VerifyError) Unwrap() error { return e.Err }

// errRungSkipped marks a ladder rung whose prerequisite artifacts are
// missing, as opposed to one that was attempted and failed.
var errRungSkipped = errors.New("degradation rung skipped: missing artifacts")

// userFault reports whether a pipeline error is the caller's to fix —
// unparseable or unresolvable SQL, an exceeded resource limit, or a dead
// context. The degradation ladder never engages for these: there is
// either nothing trustworthy to serve or a policy bound to respect.
func userFault(ctx context.Context, err error) bool {
	var le *LimitError
	if errors.As(err, &le) {
		return true
	}
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	var se *StageError
	if errors.As(err, &se) && !errors.Is(err, faults.ErrInjected) {
		switch se.Stage {
		case StageParse, StageResolve, StageConvert:
			return true
		}
	}
	return false
}

// verifyOrDegrade implements Verify mode on top of a (possibly partial)
// pipeline result: verify when the pipeline succeeded, then either
// return, fail strictly, or walk the ladder. sp is the enclosing verify
// span (possibly a no-op handle); verifyResult annotates it with the
// search nodes the inverse recovery visited.
func verifyOrDegrade(ctx context.Context, res *Result, pipeErr error, opts Options, sp telemetry.SpanHandle) (*Result, error) {
	if pipeErr != nil {
		// User-fault and context errors surface unchanged; so does every
		// pipeline error in strict mode (strict means fail closed).
		if opts.Verify == VerifyStrict || userFault(ctx, pipeErr) {
			return nil, pipeErr
		}
		res.VerifyStatus = VerifyStatusError
		res.VerifyDetail = pipeErr.Error()
		return degrade(ctx, res, opts, pipeErr)
	}

	status, rec, detail, cause := verifyResult(ctx, res, opts, sp)
	res.VerifyStatus = status
	res.VerifyDetail = detail
	if status == VerifyStatusVerified {
		res.Recovered = rec
		return res, nil
	}
	if opts.Verify == VerifyStrict {
		return nil, &VerifyError{Status: status, Err: cause}
	}
	if err := ctx.Err(); err != nil {
		// A dead context must propagate as a timeout/cancellation, not be
		// papered over by a rung that happens to need no more work.
		return nil, stageErr(StageVerify, err)
	}
	return degrade(ctx, res, opts, cause)
}

// verifyResult proves the pipeline's diagram correct by inverse
// recovery. It never panics (contained locally) and classifies every
// failure into a VerifyStatus.
func verifyResult(ctx context.Context, res *Result, opts Options, sp telemetry.SpanHandle) (status string, rec *logictree.LT, detail string, cause error) {
	defer func() {
		if r := recover(); r != nil {
			status = VerifyStatusError
			detail = fmt.Sprintf("verification panicked: %v", r)
			cause = &InternalError{Stage: StageVerify, Value: r, Stack: debug.Stack()}
		}
	}()

	if err := faults.Fire(ctx, faults.StageVerify); err != nil {
		return classifyVerifyErr(err)
	}

	// Recovery is defined on the flattened ∄-form tree and its diagram.
	ne := res.RawTree
	if ne == nil {
		return VerifyStatusError, nil, "no ∄-form tree to verify against", nil
	}
	if opts.KeepExistsBlocks {
		c, err := ne.CloneContext(ctx)
		if err != nil {
			return classifyVerifyErr(err)
		}
		if ne, err = c.FlattenContext(ctx); err != nil {
			return classifyVerifyErr(err)
		}
	}
	dNE := res.Diagram
	if opts.Simplify || opts.KeepExistsBlocks {
		var err error
		dNE, err = core.BuildContext(ctx, ne)
		if err != nil {
			return classifyVerifyErr(err)
		}
	}

	rec, nodes, err := inverse.RecoverContextStats(ctx, dNE, 0)
	sp.Annotate("budget_spent", strconv.Itoa(nodes))
	if err != nil {
		var ae *inverse.AmbiguityError
		if errors.As(err, &ae) {
			return VerifyStatusAmbiguous, nil, err.Error(), stageErr(StageVerify, err)
		}
		return classifyVerifyErr(err)
	}
	if got, want := pipeline.TreeKey(rec), pipeline.TreeKey(ne); got != want {
		return VerifyStatusMismatch, nil,
			fmt.Sprintf("recovered tree differs from forward tree\nforward:   %s\nrecovered: %s", want, got),
			nil
	}
	return VerifyStatusVerified, rec, "", nil
}

// classifyVerifyErr maps a verification error other than the search's
// verdicts to its status.
func classifyVerifyErr(err error) (string, *logictree.LT, string, error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return VerifyStatusTimeout, nil, err.Error(), stageErr(StageVerify, err)
	}
	return VerifyStatusError, nil, err.Error(), stageErr(StageVerify, err)
}

// degrade walks the ladder top to bottom and serves the first rung that
// can be produced, recording it in Result.Degraded. Each rung re-runs —
// and re-fires the fault injection points of — exactly the stages it
// needs, so a persistent stage fault pushes the response further down
// rather than looping on a broken stage. When even the TRC rung fails,
// the original cause surfaces as the error.
func degrade(ctx context.Context, res *Result, opts Options, cause error) (*Result, error) {
	type rung struct {
		name    string
		attempt func() error
	}
	rungs := []rung{
		{RungSimplified, func() error { return rungDiagram(ctx, res, true) }},
		{RungExistsForm, func() error { return rungDiagram(ctx, res, false) }},
		{RungTRC, func() error { return rungTRC(ctx, res) }},
	}
	for _, r := range rungs {
		if err := r.attempt(); err == nil {
			res.Degraded = r.name
			return res, nil
		} else if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, stageErr(StageVerify, err)
		}
	}
	if cause == nil {
		cause = &StageError{Stage: StageVerify, Err: errors.New("all degradation rungs failed")}
	}
	return nil, cause
}

// rungDiagram rebuilds a diagram from the ∄-form tree — simplified to the
// ∀∃ form for the top rung, as-is for the middle one — through the
// pipeline's own stages, with panic containment. Its hook re-fires the
// fault point of each stage it re-runs; the work stays inside the
// verify span.
func rungDiagram(ctx context.Context, res *Result, simplify bool) (err error) {
	if res.RawTree == nil {
		return errRungSkipped
	}
	defer panicBoundary(StageBuild, &err)
	a := pipeline.Artifacts{Query: res.Query, TRC: res.TRC, RawTree: res.RawTree}
	if !simplify {
		a.Tree = res.RawTree
	}
	opts := pipeline.Options{Simplify: simplify}
	refire := func(stage string, run func() error) error {
		if err := faults.Fire(ctx, faults.Stage(stage)); err != nil {
			return err
		}
		return run()
	}
	if err := pipeline.Run(ctx, &a, "", nil, opts, pipeline.Tree, refire); err != nil {
		return err
	}
	// A tree the simplifier left untouched has no ∀∃ form to offer; skip
	// to the ∄ rung rather than serve an identical diagram under a
	// misleading rung name.
	if simplify && countQuant(a.Tree, trc.ForAll) == 0 {
		return errRungSkipped
	}
	if err := pipeline.Run(ctx, &a, "", nil, opts, pipeline.Build, refire); err != nil {
		return err
	}
	res.Tree, res.Diagram, res.Interpretation = a.Tree, a.Diagram, a.Interpretation
	return nil
}

// countQuant counts nodes carrying the quantifier.
func countQuant(lt *logictree.LT, q trc.Quant) int {
	n := 0
	lt.Walk(func(nd *logictree.Node, _ int) {
		if nd.Quant == q {
			n++
		}
	})
	return n
}

// rungTRC renders the calculus text (Fig. 9 style) — the last artifact
// standing when no diagram can be produced. The stale diagram, if any, is
// dropped so a degraded-to-TRC result can never leak an unverified
// drawing.
func rungTRC(ctx context.Context, res *Result) (err error) {
	if res.TRC == nil {
		return errRungSkipped
	}
	defer panicBoundary(StageRender, &err)
	if err := ctx.Err(); err != nil {
		return err
	}
	res.TRCText = res.TRC.String()
	res.Diagram = nil
	return nil
}
