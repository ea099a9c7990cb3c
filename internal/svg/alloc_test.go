package svg

import "testing"

// TestRenderAllocBudget pins the allocations of one SVG render of the
// paper's Fig. 1 and Fig. 3 diagrams: the layout's slices plus one
// pre-sized output buffer. A per-call strings.NewReplacer or
// per-element fmt call reintroduced on this path costs hundreds and
// fails here by name.
func TestRenderAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"fig1_unique_set": 34,
		"fig3_qsome":      22,
		"fig3_qonly":      26,
	}
	for _, c := range goldenCases() {
		budget, ok := budgets[c.name]
		if !ok {
			continue
		}
		for _, simplify := range []bool{false, true} {
			d := goldenDiagram(t, c, simplify)
			got := testing.AllocsPerRun(100, func() { _ = Render(d) })
			if got > budget {
				t.Errorf("%s (simplify=%t): %.0f allocs per render, budget %.0f",
					c.name, simplify, got, budget)
			}
		}
	}
}
