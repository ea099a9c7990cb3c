package queryvis

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/inverse"
	"repro/internal/pipeline"
)

// TestStageAllocBudgets pins the heap allocations of each forward
// pipeline stage and of the verify leaf on the paper's Fig. 1 and Fig. 3
// queries. The forward stages are counted through the pipeline's own
// hook, which repeats each stage's run under testing.AllocsPerRun, so
// the test measures exactly the sequence the library runs. Each budget
// is the measured count plus a little headroom, so a per-character
// builder, a per-lookup map copy or a fmt call put back on the hot path
// fails here under the name of its stage.
func TestStageAllocBudgets(t *testing.T) {
	s := beersSchema(t)
	type budgets struct{ parseResolve, convert, tree, build, interpret, recover float64 }
	for _, c := range []struct {
		name, sql string
		budget    budgets
	}{
		{"fig1_unique_set", corpus.Fig1UniqueSet, budgets{92, 48, 32, 27, 1, 69}},
		{"fig3_qsome", corpus.Fig3QSome, budgets{36, 21, 8, 21, 1, 31}},
		{"fig3_qonly", corpus.Fig3QOnly, budgets{50, 26, 16, 22, 1, 40}},
	} {
		ctx := context.Background()
		got := map[string]float64{}
		var a pipeline.Artifacts
		err := pipeline.Run(ctx, &a, c.sql, s, pipeline.Options{}, pipeline.Build,
			func(stage string, run func() error) error {
				var err error
				got[stage] = testing.AllocsPerRun(50, func() { err = run() })
				return err
			})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got["recover"] = testing.AllocsPerRun(50, func() {
			_, _, _ = inverse.RecoverContextStats(ctx, a.Diagram, 0)
		})
		for _, st := range []struct {
			stage       string
			got, budget float64
		}{
			{"parse+resolve", got[pipeline.Parse] + got[pipeline.Resolve], c.budget.parseResolve},
			{"convert", got[pipeline.Convert], c.budget.convert},
			{"logictree", got[pipeline.Tree], c.budget.tree},
			{"build+interpret", got[pipeline.Build], c.budget.build + c.budget.interpret},
			{"verify recover", got["recover"], c.budget.recover},
		} {
			if st.got > st.budget {
				t.Errorf("%s %s: %.0f allocs per run, budget %.0f", c.name, st.stage, st.got, st.budget)
			}
		}
	}
}
