package dot

import "testing"

// TestRenderAllocBudget pins the allocations of one DOT render of the
// paper's Fig. 1 and Fig. 3 diagrams. The renderer writes straight into
// one pre-sized buffer, so a render costs a handful of allocations; a
// per-call strings.NewReplacer or per-row fmt call reintroduced on this
// path costs dozens and fails here by name.
func TestRenderAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"fig1_unique_set": 5,
		"fig3_qsome":      4,
		"fig3_qonly":      4,
	}
	for _, c := range goldenCases() {
		budget, ok := budgets[c.name]
		if !ok {
			continue
		}
		for _, simplify := range []bool{false, true} {
			d := goldenDiagram(t, c, simplify)
			for _, vars := range []bool{false, true} {
				opts := Options{ShowVars: vars}
				got := testing.AllocsPerRun(100, func() { _ = RenderWith(d, opts) })
				if got > budget {
					t.Errorf("%s (simplify=%t, vars=%t): %.0f allocs per render, budget %.0f",
						c.name, simplify, vars, got, budget)
				}
			}
		}
	}
}
