package queryvis

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/inverse"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// TestStageAllocBudgets pins the heap allocations of each forward
// pipeline stage and of the verify leaf on the paper's Fig. 1 and Fig. 3
// queries. Each budget is the measured count plus a little headroom, so
// a per-character builder, a per-lookup map copy or a fmt call put back
// on the hot path fails here under the name of its stage.
func TestStageAllocBudgets(t *testing.T) {
	s := beersSchema(t)
	type budgets struct{ parseResolve, convert, build, interpret, recover float64 }
	for _, c := range []struct {
		name, sql string
		budget    budgets
	}{
		{"fig1_unique_set", corpus.Fig1UniqueSet, budgets{92, 48, 27, 1, 69}},
		{"fig3_qsome", corpus.Fig3QSome, budgets{36, 21, 21, 1, 31}},
		{"fig3_qonly", corpus.Fig3QOnly, budgets{50, 26, 22, 1, 40}},
	} {
		res, err := FromSQL(c.sql, s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		q := sqlparse.MustParse(c.sql)
		r, err := sqlparse.Resolve(q, s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ctx := context.Background()
		for _, st := range []struct {
			stage  string
			budget float64
			run    func()
		}{
			{"sqlparse.Parse+Resolve", c.budget.parseResolve, func() {
				q, _ := sqlparse.Parse(c.sql)
				_, _ = sqlparse.Resolve(q, s)
			}},
			{"trc.Convert", c.budget.convert, func() { _, _ = trc.Convert(q, r) }},
			{"core.Build", c.budget.build, func() { _, _ = core.Build(res.Tree) }},
			{"core.Interpret", c.budget.interpret, func() { _ = core.Interpret(res.Tree) }},
			{"inverse.RecoverContextStats", c.budget.recover, func() {
				_, _, _ = inverse.RecoverContextStats(ctx, res.Diagram, 0)
			}},
		} {
			if got := testing.AllocsPerRun(50, st.run); got > st.budget {
				t.Errorf("%s %s: %.0f allocs per run, budget %.0f", c.name, st.stage, got, st.budget)
			}
		}
	}
}
