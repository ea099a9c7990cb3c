package queryvis

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// TestVerifyKeyAllocBudget pins the allocations of one verification key
// on the paper's Fig. 1 and Fig. 3 trees, forward and recovered. The key
// is assembled in one buffer, so it costs a few allocations; a deep
// clone or a per-predicate fmt.Sprintf reintroduced here costs dozens
// and fails by name.
func TestVerifyKeyAllocBudget(t *testing.T) {
	s := beersSchema(t)
	for _, c := range []struct {
		name, sql string
		budget    float64
	}{
		{"fig1_unique_set", corpus.Fig1UniqueSet, 5},
		{"fig3_qsome", corpus.Fig3QSome, 3},
		{"fig3_qonly", corpus.Fig3QOnly, 3},
	} {
		res, err := FromSQL(c.sql, s, Options{Verify: VerifyStrict})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for label, lt := range map[string]*LogicTree{"forward": res.RawTree, "recovered": res.Recovered} {
			if got := testing.AllocsPerRun(100, func() { _ = pipeline.TreeKey(lt) }); got > c.budget {
				t.Errorf("%s %s tree: %.0f allocs per verify key, budget %.0f",
					c.name, label, got, c.budget)
			}
		}
	}
}
