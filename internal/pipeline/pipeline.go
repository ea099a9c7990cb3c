// Package pipeline is the paper's forward chain (QueryVis §4, Fig. 8)
// written once:
//
//	SQL ─parse→ AST ─resolve→ bindings ─convert→ TRC ─logictree→ logic tree ─build→ diagram
//
// Run walks that stage list for one query under one hook,
// func(stage string, run func() error) error, which is how a caller
// adds what it needs around each stage: the library its spans, fault
// points, stage errors and resource limits; the oracle its spans; a
// test its allocation counter. The catalog and the relational engine
// pass no hook at all. The stages themselves carry no policy, so a new
// stage or a new verifier is one entry here rather than one edit per
// caller.
package pipeline

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/logictree"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// Stage names, in pipeline order. They are the fault-injection points
// of internal/faults and the span names of a trace.
const (
	Parse   = string(faults.StageParse)
	Resolve = string(faults.StageResolve)
	Convert = string(faults.StageConvert)
	Tree    = string(faults.StageTree)
	Build   = string(faults.StageBuild)
)

// Options selects the logic tree the Tree stage produces.
type Options struct {
	// Simplify applies the ∄∄ → ∀∃ rewrite (§4.7) to Tree; RawTree
	// stays in ∄ form.
	Simplify bool
	// KeepExistsBlocks leaves ∃ blocks unflattened in RawTree.
	KeepExistsBlocks bool
}

// Artifacts holds what the stages produced so far. Run skips every
// stage whose artifact is already set, so a caller resumes from a
// prefix: the degradation ladder rebuilds a diagram from RawTree
// without parsing again.
type Artifacts struct {
	Query          *sqlparse.Query
	TRC            *trc.Expr
	RawTree        *logictree.LT // from the TRC, flattened unless KeepExistsBlocks
	Tree           *logictree.LT // RawTree, simplified when asked
	Diagram        *core.Diagram
	Interpretation string // natural-language reading of Tree (§4.6)
}

// Hook brackets one stage: it calls run, which fills the stage's
// artifact, and returns run's error or one of its own. run is valid
// only during the call and may be called again to repeat the stage.
type Hook func(stage string, run func() error) error

type stage struct {
	name string
	done func(a *Artifacts) bool
	run  func(r *runner) error
}

var stages = [...]stage{
	{Parse, func(a *Artifacts) bool { return a.Query != nil }, parse},
	{Resolve, func(a *Artifacts) bool { return a.TRC != nil }, resolve},
	{Convert, func(a *Artifacts) bool { return a.TRC != nil }, convert},
	{Tree, func(a *Artifacts) bool { return a.Tree != nil }, tree},
	{Build, func(a *Artifacts) bool { return a.Diagram != nil }, build},
}

// runner is one Run's state. The closure a hook receives escapes (the
// hook is a func value), so runners and their step closures are pooled
// rather than allocated per query.
type runner struct {
	ctx  context.Context
	a    *Artifacts
	sql  string
	s    *schema.Schema
	opts Options
	raw  *logictree.LT        // the RawTree the caller gave, nil to derive it
	res  *sqlparse.Resolution // Resolve's output, only Convert reads it
	i    int                  // index of the stage being run
	step func() error
}

var runners = sync.Pool{New: func() any {
	r := new(runner)
	r.step = func() error { return stages[r.i].run(r) }
	return r
}}

// Run fills a stage by stage, through last, for the query sql over s,
// calling every stage it enters through hook (nil runs them bare). On
// error the completed prefix stays in a and the stage's error is
// returned as the hook returned it.
func Run(ctx context.Context, a *Artifacts, sql string, s *schema.Schema, opts Options, last string, hook Hook) error {
	r := runners.Get().(*runner)
	*r = runner{ctx: ctx, a: a, sql: sql, s: s, opts: opts, raw: a.RawTree, step: r.step}
	defer func() {
		*r = runner{step: r.step}
		runners.Put(r)
	}()
	if hook == nil {
		hook = func(_ string, run func() error) error { return run() }
	}
	for r.i = range stages {
		st := &stages[r.i]
		if !st.done(a) {
			if err := hook(st.name, r.step); err != nil {
				return err
			}
		}
		if st.name == last {
			break
		}
	}
	return nil
}

// A stage's artifact stays nil on error: the stage packages return nil.

func parse(r *runner) (err error) {
	r.a.Query, err = sqlparse.ParseContext(r.ctx, r.sql)
	return err
}

func resolve(r *runner) (err error) {
	r.res, err = sqlparse.ResolveContext(r.ctx, r.a.Query, r.s)
	return err
}

func convert(r *runner) (err error) {
	r.a.TRC, err = trc.ConvertContext(r.ctx, r.a.Query, r.res)
	return err
}

// tree derives the ∄-form RawTree from the TRC, unless the caller gave
// one, then Tree from it. RawTree is set before simplifying, so it
// survives a failed simplification for the ladder.
func tree(r *runner) (err error) {
	raw := r.raw
	if raw == nil {
		if raw, err = logictree.FromTRCContext(r.ctx, r.a.TRC); err != nil {
			return err
		}
		if !r.opts.KeepExistsBlocks {
			if _, err = raw.FlattenContext(r.ctx); err != nil {
				return err
			}
		}
	}
	r.a.RawTree, r.a.Tree = raw, raw
	if r.opts.Simplify {
		r.a.Tree, err = raw.SimplifiedContext(r.ctx)
	}
	return err
}

func build(r *runner) (err error) {
	if r.a.Diagram, err = core.BuildContext(r.ctx, r.a.Tree); err == nil {
		r.a.Interpretation = core.Interpret(r.a.Tree)
	}
	return err
}

// TreeKey is the key two logic trees are compared by when one was
// recovered from a diagram: LT.Canonical with the GROUP BY attributes
// sorted, since recovery reads them back in diagram order, a
// permutation of the written order with the same meaning.
func TreeKey(lt *logictree.LT) string {
	// Canonical only reads the tree, so a shallow copy with its own GROUP
	// BY slice suffices. The insertion sort builds the compared names in
	// stack buffers, which a sort package comparator would allocate.
	c := *lt
	c.GroupBy = append([]trc.Attr(nil), lt.GroupBy...)
	gb := c.GroupBy
	for i := 1; i < len(gb); i++ {
		for j := i; j > 0 && gb[j].String() < gb[j-1].String(); j-- {
			gb[j], gb[j-1] = gb[j-1], gb[j]
		}
	}
	return c.Canonical()
}
