package quarantine

import (
	"context"
	"fmt"

	queryvis "repro"
	"repro/internal/faults"
	"repro/internal/schema"
)

// Outcome is the result of replaying one quarantined entry against the
// current build of the pipeline.
type Outcome struct {
	Key    string
	Entry  Entry
	Status string // observed VerifyStatus, or "error" when the pipeline failed
	Rung   string // degradation rung that served the replay, if any
	Err    error  // pipeline error, or replay-setup failure

	// Reproduced: the observed status matches the recorded one — the
	// failure is still there, behaving exactly as filed.
	Reproduced bool
	// Verified: the input now verifies cleanly — the bug the entry
	// recorded has been fixed.
	Verified bool
}

// Divergent reports whether the replay is neither a faithful
// reproduction nor a clean verification — the interesting case: the
// failure mode changed shape, which is either a partial fix or a new
// bug wearing an old key.
func (o Outcome) Divergent() bool { return !o.Reproduced && !o.Verified }

// Replay runs one entry through the verified pipeline exactly as it was
// recorded: same scrubbed SQL, same schema, same
// injected fault plan (reconstructed from its seed — plans are pure
// functions of the seed, so the replay is deterministic). Verification
// runs in degrade mode so the observed status is reported rather than
// returned as an error.
func Replay(ctx context.Context, e Entry) Outcome {
	out := Outcome{Key: e.Key(), Entry: e}
	sch, ok := schema.ByName(e.Schema)
	if !ok {
		out.Status = "error"
		out.Err = fmt.Errorf("quarantine: entry %s names unknown schema %q", out.Key, e.Schema)
		return out
	}
	if e.FaultSeed != 0 {
		ctx = faults.WithPlan(ctx, faults.NewPlan(e.FaultSeed))
	}
	res, err := queryvis.FromSQLContext(ctx, e.SQL, sch, queryvis.Options{
		Simplify: e.Simplify,
		Verify:   queryvis.VerifyDegrade,
	})
	if err != nil {
		out.Status = "error"
		out.Err = err
	} else {
		out.Status = res.VerifyStatus
		out.Rung = res.Degraded
	}
	out.Verified = out.Status == queryvis.VerifyStatusVerified
	out.Reproduced = out.Status == e.Status
	return out
}

// ReplayDir loads and replays every entry under dir, in the stable
// Load order. The error is non-nil only when the directory itself
// cannot be read; per-entry failures are carried in the outcomes.
func ReplayDir(ctx context.Context, dir string) ([]Outcome, error) {
	entries, err := Load(dir)
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, 0, len(entries))
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, Replay(ctx, e))
	}
	return out, nil
}
