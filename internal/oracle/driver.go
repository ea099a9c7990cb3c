package oracle

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/inverse"
	"repro/internal/logictree"
	"repro/internal/pipeline"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
)

// Stage identifies which differential check a failure came from.
type Stage string

const (
	// StageGen: the generated SQL was rejected by parse/resolve/convert —
	// the generator claims to emit only the supported fragment.
	StageGen Stage = "generate"
	// StageValidate: the flattened tree violates the non-degeneracy
	// properties the generator is supposed to guarantee.
	StageValidate Stage = "validate"
	// StageBuild: diagram construction failed.
	StageBuild Stage = "build"
	// StageRecover: inverse.Recover failed or found ≠1 solutions — an
	// unambiguity (Theorem 5.4) violation.
	StageRecover Stage = "recover"
	// StageRecoverLT: the recovered tree differs from the original.
	StageRecoverLT Stage = "recovered-tree"
	// StageReSQL: SQL re-derived from the recovered tree failed the
	// pipeline or came back as a different tree.
	StageReSQL Stage = "resql"
	// StageExec: result sets differ on some database.
	StageExec Stage = "execution"
	// StagePattern: SamePattern / PatternFingerprint disagree between the
	// original diagram and the recovered tree's diagram.
	StagePattern Stage = "pattern"
)

// Failure describes one differential mismatch.
type Failure struct {
	Stage  Stage
	Detail string
}

func (f *Failure) Error() string { return fmt.Sprintf("[%s] %s", f.Stage, f.Detail) }

// forward runs the pipeline through last to the flattened ∄-form tree
// (Tree), each stage under a span feeding the report's timings (a no-op
// without a tracer on ctx); a failure is prefixed with its stage.
func forward(ctx context.Context, a *pipeline.Artifacts, sql string, s *schema.Schema, last string) error {
	return pipeline.Run(ctx, a, sql, s, pipeline.Options{}, last, func(stage string, run func() error) error {
		sp := telemetry.StartSpan(ctx, stage)
		defer sp.End()
		if err := run(); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		return nil
	})
}

// Check runs the full differential on one SQL query: forward pipeline,
// diagram recovery, SQL re-derivation, pattern cross-checks, and
// execution on every database. nil means every stage agreed.
func Check(sql string, s *schema.Schema, dbs []*TestDB) *Failure {
	return CheckContext(context.Background(), sql, s, dbs)
}

// CheckContext is Check under a context. When the context is done the
// differential aborts mid-stage and returns a Failure wrapping the
// context error; callers that care must test ctx.Err() before treating
// the result as a genuine counterexample.
func CheckContext(ctx context.Context, sql string, s *schema.Schema, dbs []*TestDB) *Failure {
	var a pipeline.Artifacts
	if err := forward(ctx, &a, sql, s, pipeline.Tree); err != nil {
		return &Failure{StageGen, err.Error()}
	}
	lt := a.Tree
	if err := lt.Validate(); err != nil {
		return &Failure{StageValidate, err.Error()}
	}
	if err := forward(ctx, &a, sql, s, pipeline.Build); err != nil {
		return &Failure{StageBuild, err.Error()}
	}

	sp := telemetry.StartSpan(ctx, string(faults.StageVerify))
	rec, err := inverse.Recover(a.Diagram)
	sp.End()
	if err != nil {
		return &Failure{StageRecover, err.Error()}
	}
	key := pipeline.TreeKey(lt)
	if k := pipeline.TreeKey(rec); k != key {
		return &Failure{StageRecoverLT, fmt.Sprintf(
			"recovered tree differs from original\noriginal:  %s\nrecovered: %s", key, k)}
	}

	q2, err := rec.ToSQL()
	if err != nil {
		return &Failure{StageReSQL, err.Error()}
	}
	sql2 := sqlparse.Format(q2)
	var a2 pipeline.Artifacts
	if err := forward(ctx, &a2, sql2, s, pipeline.Tree); err != nil {
		return &Failure{StageReSQL, fmt.Sprintf("re-derived SQL rejected: %v\n%s", err, sql2)}
	}
	if k := pipeline.TreeKey(a2.Tree); k != key {
		return &Failure{StageReSQL, fmt.Sprintf(
			"re-derived SQL is a different query\nsql:       %s\noriginal:  %s\nre-derived: %s",
			sql2, key, k)}
	}

	d2, err := core.BuildContext(ctx, rec)
	if err != nil {
		return &Failure{StagePattern, fmt.Sprintf("recovered tree does not build: %v", err)}
	}
	same := core.Isomorphic(a.Diagram, d2, core.Pattern)
	fpEq := core.PatternKey(a.Diagram) == core.PatternKey(d2)
	if !same || !fpEq {
		return &Failure{StagePattern, fmt.Sprintf(
			"SamePattern=%v but fingerprint equality=%v between original and recovered diagrams",
			same, fpEq)}
	}

	// Execution differential: the original tree versus every equivalent
	// form, on every database.
	esp := telemetry.StartSpan(ctx, "execute")
	defer esp.End()
	alts := []struct {
		name string
		lt   *logictree.LT
	}{
		{"recovered", rec},
		{"re-derived", a2.Tree},
		{"simplified", lt.Simplified()},
	}
	for i, tdb := range dbs {
		if err := ctx.Err(); err != nil {
			return &Failure{StageExec, fmt.Sprintf("db %d: %v", i, err)}
		}
		db := tdb.Database()
		r0, err := rel.EvalLT(db, lt)
		if err != nil {
			return &Failure{StageExec, fmt.Sprintf("db %d: original eval: %v", i, err)}
		}
		for _, a := range alts {
			r1, err := rel.EvalLT(db, a.lt)
			if err != nil {
				return &Failure{StageExec, fmt.Sprintf("db %d: %s eval: %v", i, a.name, err)}
			}
			if !r0.Equal(r1) {
				return &Failure{StageExec, fmt.Sprintf(
					"db %d: %s form returns different rows\noriginal:\n%s%s:\n%s",
					i, a.name, r0, a.name, r1)}
			}
		}
	}
	return nil
}

// StageAgg aggregates span timings for one pipeline stage across a run.
type StageAgg struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// MeanNS is the stage's average duration.
func (a *StageAgg) MeanNS() int64 {
	if a.Count == 0 {
		return 0
	}
	return a.TotalNS / a.Count
}

func (a *StageAgg) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if a.Count == 0 || ns < a.MinNS {
		a.MinNS = ns
	}
	if ns > a.MaxNS {
		a.MaxNS = ns
	}
	a.Count++
	a.TotalNS += ns
}

// Report summarizes a Run.
type Report struct {
	Queries  int               `json:"queries"`
	Failures []*Counterexample `json:"failures,omitempty"`
	Elapsed  time.Duration     `json:"elapsed_ns"`
	// QueryHash fingerprints the generated SQL stream: equal seeds and
	// configs produce equal hashes, which is how determinism is asserted.
	QueryHash uint64 `json:"query_hash"`
	// TimedOut marks a run cut short by its deadline (or canceled). The
	// report is then the partial result over the queries that did finish —
	// a prefix of the corresponding unbounded run.
	TimedOut bool `json:"timed_out,omitempty"`
	// StageTimings aggregates per-stage span durations across every
	// differential check in the run (shrinking excluded, so the numbers
	// describe the stream itself). Keys are the pipeline stage names plus
	// "execute" for the execution differential.
	StageTimings map[string]*StageAgg `json:"stage_timings,omitempty"`
}

// observeSpans folds one check's trace into the per-stage aggregates.
func (r *Report) observeSpans(spans []telemetry.Span) {
	for _, sp := range spans {
		if r.StageTimings == nil {
			r.StageTimings = make(map[string]*StageAgg)
		}
		agg := r.StageTimings[sp.Name]
		if agg == nil {
			agg = &StageAgg{}
			r.StageTimings[sp.Name] = agg
		}
		agg.observe(sp.Duration)
	}
}

// QueriesPerSec is the oracle's end-to-end throughput.
func (r *Report) QueriesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// maxFailures bounds how many counterexamples a run collects before
// stopping: each one is shrunk (expensive) and one is usually enough.
const maxFailures = 5

// Run generates and differentially checks n queries. The i-th query
// depends only on (seed, i, cfg), so runs with the same arguments are
// byte-identical — same queries, same databases, same outcome.
func Run(cfg Config, n int, seed int64) (*Report, error) {
	return RunFor(cfg, n, seed, 0)
}

// RunFor is Run with an optional wall-clock budget; timeout <= 0 means no
// limit. A timed-out run is a prefix of the corresponding full run.
func RunFor(cfg Config, n int, seed int64, timeout time.Duration) (*Report, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return RunContext(ctx, cfg, n, seed)
}

// RunContext is Run under a context. The deadline is honored end to end:
// it is checked between queries and threaded through every pipeline
// stage of the differential, so even one pathologically slow query
// cannot hold the run past its budget. A timed-out or canceled run
// returns the partial report (TimedOut set) rather than an error — the
// queries that did complete remain a valid, reproducible prefix.
func RunContext(ctx context.Context, cfg Config, n int, seed int64) (*Report, error) {
	schemas, err := cfg.schemaSet()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	h := fnv.New64a()
	rep := &Report{}
	master := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		qseed := master.Int63()
		if ctx.Err() != nil {
			rep.TimedOut = true
			break
		}
		rng := rand.New(rand.NewSource(qseed))
		s := schemas[rng.Intn(len(schemas))]
		q := Generate(rng, s, cfg)
		sql := sqlparse.Format(q)
		h.Write([]byte(sql))
		dbs := make([]*TestDB, cfg.Databases)
		for j := range dbs {
			dbs[j] = RandomDB(rng, s, cfg)
		}
		rep.Queries++
		// A fresh tracer per query keeps the per-stage aggregates exact;
		// the shrinker below runs without one, so its re-checks don't skew
		// the numbers.
		tr := telemetry.NewTracer()
		f := CheckContext(telemetry.WithTracer(ctx, tr), sql, s, dbs)
		rep.observeSpans(tr.Spans())
		if f != nil {
			if ctx.Err() != nil {
				// The "failure" is the deadline firing mid-check, not a real
				// counterexample; the interrupted query does not count.
				rep.Queries--
				rep.TimedOut = true
				break
			}
			rep.Failures = append(rep.Failures, Minimize(q, s, dbs, f, Check))
			if len(rep.Failures) >= maxFailures {
				break
			}
		}
	}
	rep.QueryHash = h.Sum64()
	rep.Elapsed = time.Since(start)
	return rep, nil
}
