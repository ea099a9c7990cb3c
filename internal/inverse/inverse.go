// Package inverse maps QueryVis diagrams back to logic trees, making the
// paper's Proposition 5.1 (unambiguity) executable: for any valid diagram
// — one generated from a non-degenerate query of nesting depth at most 3 —
// there is exactly one logic tree that maps to it.
//
// Recovery works on the ∄-form diagrams the paper's Appendix B proof
// covers (every non-root table group carries a dashed box); a simplified
// (∀) diagram is handled by de-simplifying its logic tree first, see
// logictree.Unsimplify.
//
// The recovery engine is a complete constraint search: it enumerates
// every rooted tree over the diagram's table groups that is consistent
// with the arrow rules, the depth bound, and the non-degeneracy
// Properties 5.1/5.2, and demands exactly one survivor. This subsumes the
// paper's case analysis — the depth-0/1/2 decompositions of Appendix B.2
// are exposed separately (DecomposeAtRoot) and the exhaustive path-pattern
// enumeration of Appendix B.1 is implemented in patterns.go.
package inverse

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/logictree"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// AmbiguityError reports that a diagram admitted zero or several logic
// trees.
type AmbiguityError struct {
	Solutions int
}

func (e *AmbiguityError) Error() string {
	if e.Solutions == 0 {
		return "diagram admits no consistent logic tree"
	}
	return fmt.Sprintf("diagram is ambiguous: %d consistent logic trees", e.Solutions)
}

// DefaultSearchBudget is the node budget production callers (the facade's
// Verify mode) use when they pass budget 0. The search space over n table
// groups is (n-1)^(n-1) parent assignments; every valid paper query stays
// below a few hundred nodes, so half a million is two-plus orders of
// magnitude of headroom while still bounding an adversarial diagram to
// milliseconds of work.
const DefaultSearchBudget = 500_000

// BudgetError reports that the constraint search was stopped after
// spending its node budget without completing the enumeration. It is a
// resource verdict, not a correctness one: the diagram may well be
// unambiguous, but proving it was too expensive under the given budget.
type BudgetError struct {
	Nodes  int // search nodes visited before stopping
	Budget int // the budget that was exhausted
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("inverse search budget exhausted: %d nodes visited (budget %d)", e.Nodes, e.Budget)
}

// search carries the per-call resource accounting of the constraint
// enumeration: a visited-node counter checked against the budget, and an
// amortized context check (one ctx.Err() poll every 256 nodes, so the
// unbounded fast path stays an increment).
type search struct {
	ctx    context.Context
	budget int // <= 0: unbounded
	nodes  int
	err    error // first budget/context error; sticky
}

// step accounts for one visited search node. It returns a non-nil error —
// sticky across calls — once the budget is exhausted or the context is
// done.
func (st *search) step() error {
	if st.err != nil {
		return st.err
	}
	st.nodes++
	if st.budget > 0 && st.nodes > st.budget {
		st.err = &BudgetError{Nodes: st.nodes, Budget: st.budget}
		return st.err
	}
	if st.ctx != nil && st.nodes&255 == 0 {
		if err := st.ctx.Err(); err != nil {
			st.err = err
			return st.err
		}
	}
	return nil
}

// graph is the group-level view of a diagram used during recovery.
type graph struct {
	d      *core.Diagram
	groups [][]int     // group index -> table IDs; groups[0] is the root
	boxOf  []trc.Quant // quantifier per group (root: ∃)
	gOf    []int       // table ID -> group index
	// directed cross-group edges, as (fromGroup, toGroup) pairs with the
	// originating diagram edge.
	edges []groupEdge
}

type groupEdge struct {
	from, to int // group indices
	e        core.Edge
}

// buildGraph extracts groups and cross-group arrows from a diagram. It
// fails when the diagram is not in ∄ form.
func buildGraph(d *core.Diagram) (*graph, error) {
	g := &graph{
		d:      d,
		groups: make([][]int, 0, len(d.Boxes)+1),
		boxOf:  make([]trc.Quant, 0, len(d.Boxes)+1),
		gOf:    make([]int, len(d.Tables)),
	}

	// The root group: unboxed tables. Everything else must sit in a ∄ box.
	root := make([]int, 0, len(d.Tables)-1)
	for _, t := range d.Tables[1:] {
		if d.BoxOf(t.ID) == nil {
			root = append(root, t.ID)
		}
	}
	if len(root) == 0 {
		return nil, fmt.Errorf("diagram has no unboxed root tables")
	}
	g.groups = append(g.groups, root)
	g.boxOf = append(g.boxOf, trc.Exists)
	for _, id := range root {
		g.gOf[id] = 0
	}
	for _, b := range d.Boxes {
		if b.Quant == trc.ForAll {
			return nil, fmt.Errorf("diagram is in ∀ form; recovery is defined for ∄-form diagrams (de-simplify first)")
		}
		idx := len(g.groups)
		g.groups = append(g.groups, b.Tables)
		g.boxOf = append(g.boxOf, b.Quant)
		for _, id := range b.Tables {
			g.gOf[id] = idx
		}
	}
	cross := 0
	for _, e := range d.Edges {
		if e.Kind != core.EdgeSelect && g.gOf[e.From.Table] != g.gOf[e.To.Table] {
			cross++
		}
	}
	g.edges = make([]groupEdge, 0, cross)
	for _, e := range d.Edges {
		if e.Kind == core.EdgeSelect {
			continue
		}
		gf, gt := g.gOf[e.From.Table], g.gOf[e.To.Table]
		if gf == gt {
			continue
		}
		if !e.Directed {
			return nil, fmt.Errorf("undirected edge between distinct groups %d and %d", gf, gt)
		}
		g.edges = append(g.edges, groupEdge{from: gf, to: gt, e: e})
	}
	return g, nil
}

// consistent reports whether a parent assignment (parent[i] for each
// non-root group; parent[0] = -1) yields depths and ancestry that satisfy
// the arrow rules for every cross-group edge. It writes each group's
// depth into depth, which ltFromAssignment reads when it holds.
func (g *graph) consistent(parent, depth []int) bool {
	n := len(g.groups)
	depth[0] = 0
	// Compute depths; detect cycles and the depth bound.
	for i := 1; i < n; i++ {
		d, v := 0, i
		for v != 0 {
			v = parent[v]
			d++
			if d > n {
				return false // cycle
			}
		}
		depth[i] = d
		if d > logictree.MaxSupportedDepth {
			return false
		}
	}
	anc := func(a, b int) bool { // a is a proper ancestor of b
		for b != 0 {
			b = parent[b]
			if b == a {
				return true
			}
		}
		return a == 0
	}
	for _, ge := range g.edges {
		u, v := ge.from, ge.to
		du, dv := depth[u], depth[v]
		switch {
		case dv == du+1 && anc(u, v):
			// shallower → one-level-deeper descendant: ok
		case du >= dv+2 && anc(v, u):
			// deeper (≥2 levels) → ancestor: ok
		default:
			return false
		}
	}
	return true
}

// ltFromAssignment materializes the logic tree implied by a parent
// assignment whose group depths consistent computed.
func (g *graph) ltFromAssignment(parent, depth []int) *logictree.LT {
	n := len(g.groups)
	nodes := make([]*logictree.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &logictree.Node{Quant: g.boxOf[i]}
		for _, id := range g.groups[i] {
			t := g.d.Table(id)
			v := t.Var
			if v == "" {
				v = fmt.Sprintf("T%d", id)
			}
			nodes[i].Tables = append(nodes[i].Tables, logictree.Table{
				Var: v, Relation: t.Name,
			})
		}
	}
	for i := 1; i < n; i++ {
		nodes[parent[i]].Children = append(nodes[parent[i]].Children, nodes[i])
	}

	varOf := func(id int, row int) trc.Attr {
		t := g.d.Table(id)
		v := t.Var
		if v == "" {
			v = fmt.Sprintf("T%d", id)
		}
		return trc.Attr{Var: v, Column: t.Rows[row].Attr}
	}

	// Join predicates: each cross-group edge belongs to the deeper group's
	// node; same-group edges belong to their own node.
	for _, e := range g.d.Edges {
		if e.Kind == core.EdgeSelect {
			continue
		}
		gf, gt := g.gOf[e.From.Table], g.gOf[e.To.Table]
		la := varOf(e.From.Table, e.From.Row)
		ra := varOf(e.To.Table, e.To.Row)
		p := trc.Pred{
			Left:  trc.Term{Attr: &la},
			Op:    e.Op,
			Right: trc.Term{Attr: &ra, Offset: e.Offset},
		}
		owner := gf
		if depth[gt] > depth[gf] {
			owner = gt
		}
		nodes[owner].Preds = append(nodes[owner].Preds, p)
	}
	// Selection rows.
	for _, t := range g.d.Tables[1:] {
		for _, r := range t.Rows {
			if r.Kind != core.RowSelection {
				continue
			}
			v := t.Var
			if v == "" {
				v = fmt.Sprintf("T%d", t.ID)
			}
			a := trc.Attr{Var: v, Column: r.Attr}
			c := parseConst(r.Value)
			nodes[g.gOf[t.ID]].Preds = append(nodes[g.gOf[t.ID]].Preds, trc.Pred{
				Left:  trc.Term{Attr: &a, Offset: r.Offset},
				Op:    r.Op,
				Right: trc.Term{Const: &c},
			})
		}
	}

	lt := &logictree.LT{Root: nodes[0]}
	// SELECT box rows and edges.
	sel := g.d.Table(core.SelectBoxID)
	targets := map[int]core.EdgeEnd{} // select row -> target end
	for _, e := range g.d.Edges {
		if e.Kind == core.EdgeSelect {
			targets[e.From.Row] = e.To
		}
	}
	for i, r := range sel.Rows {
		item := trc.SelectItem{Agg: r.Agg, Star: r.Star}
		if end, ok := targets[i]; ok {
			item.Attr = varOf(end.Table, end.Row)
			item.Attr.Column = r.Attr
		}
		lt.Select = append(lt.Select, item)
	}
	for _, t := range g.d.Tables[1:] {
		for ri, r := range t.Rows {
			if r.Kind == core.RowGroupBy {
				lt.GroupBy = append(lt.GroupBy, varOf(t.ID, ri))
			}
		}
	}
	return lt
}

// parseConst re-parses a rendered constant from a selection row.
func parseConst(s string) sqlparse.Constant {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		out := make([]byte, 0, len(body))
		for i := 0; i < len(body); i++ {
			out = append(out, body[i])
			if body[i] == '\'' && i+1 < len(body) && body[i+1] == '\'' {
				i++
			}
		}
		return sqlparse.StringConst(string(out))
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err == nil {
		c := sqlparse.NumberConst(f)
		c.Raw = s
		return c
	}
	return sqlparse.StringConst(s)
}

// Solutions returns every logic tree consistent with the diagram that is
// also a valid non-degenerate tree. Valid diagrams have exactly one.
// The enumeration is exhaustive and unbounded; production callers should
// use SolutionsContext with a budget.
func Solutions(d *core.Diagram) ([]*logictree.LT, error) {
	return solutions(context.Background(), d, true, 0)
}

// SolutionsContext is Solutions under a context and a search-node budget.
// budget 0 selects DefaultSearchBudget; a negative budget disables the
// bound. When the budget runs out the enumeration stops with a
// *BudgetError; when the context is done it stops promptly with the
// context's error.
func SolutionsContext(ctx context.Context, d *core.Diagram, budget int) ([]*logictree.LT, error) {
	if budget == 0 {
		budget = DefaultSearchBudget
	}
	return solutions(ctx, d, true, budget)
}

// SolutionsRelaxed is Solutions without the non-degeneracy filter
// (Properties 5.1/5.2): candidate trees only have to satisfy the arrow
// rules and the depth bound. It exists to demonstrate the paper's
// Section 5 point that the SQL fragment *can* produce ambiguous diagrams
// — degenerate queries may admit several relaxed solutions — so the
// non-degeneracy properties are what buy unambiguity.
func SolutionsRelaxed(d *core.Diagram) ([]*logictree.LT, error) {
	return solutions(context.Background(), d, false, 0)
}

func solutions(ctx context.Context, d *core.Diagram, validate bool, budget int) ([]*logictree.LT, error) {
	out, _, err := solutionsN(ctx, d, validate, budget)
	return out, err
}

// solutionsN is solutions, additionally reporting the number of search
// nodes visited — the cost actually spent against the budget.
func solutionsN(ctx context.Context, d *core.Diagram, validate bool, budget int) ([]*logictree.LT, int, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, 0, err
	}
	st := &search{ctx: ctx, budget: budget}
	n := len(g.groups)
	// Each distinct solution is kept with its canonical key, which both
	// deduplicates and orders the result. A lone survivor needs neither,
	// so keys are computed once a second one turns up.
	type keyed struct {
		key string
		lt  *logictree.LT
	}
	var found []keyed
	var seen map[string]bool
	buf := make([]int, 2*n)
	parent, depth := buf[:n], buf[n:]
	parent[0] = -1

	var rec func(i int) error
	rec = func(i int) error {
		if err := st.step(); err != nil {
			return err
		}
		if i == n {
			if !g.consistent(parent, depth) {
				return nil
			}
			lt := g.ltFromAssignment(parent, depth)
			if validate && lt.Validate() != nil {
				return nil
			}
			if len(found) == 0 {
				found = append(found, keyed{lt: lt})
				return nil
			}
			if seen == nil {
				found[0].key = found[0].lt.Canonical()
				seen = map[string]bool{found[0].key: true}
			}
			key := lt.Canonical()
			if !seen[key] {
				seen[key] = true
				found = append(found, keyed{key, lt})
			}
			return nil
		}
		for p := 0; p < n; p++ {
			if p == i {
				continue
			}
			parent[i] = p
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(1); err != nil {
		return nil, st.nodes, err
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	var out []*logictree.LT
	for _, f := range found {
		out = append(out, f.lt)
	}
	return out, st.nodes, nil
}

// Recover returns the unique logic tree for a valid diagram, or an
// AmbiguityError when the diagram admits zero or several. Like Solutions
// it is unbounded; the serving path uses RecoverContext.
func Recover(d *core.Diagram) (*logictree.LT, error) {
	return RecoverContext(context.Background(), d, -1)
}

// RecoverContext is Recover under a context and a search-node budget
// (0 selects DefaultSearchBudget, negative disables the bound). A search
// stopped by the budget returns a *BudgetError, and one stopped by the
// context returns the context's error — both distinct from the
// *AmbiguityError a completed search may report.
func RecoverContext(ctx context.Context, d *core.Diagram, budget int) (*logictree.LT, error) {
	lt, _, err := RecoverContextStats(ctx, d, budget)
	return lt, err
}

// RecoverContextStats is RecoverContext, additionally reporting how many
// search nodes the enumeration visited — the budget actually spent,
// whether or not the search completed. The telemetry layer annotates
// verify spans with it, turning "how close are we to the budget?" into a
// measured quantity instead of a binary exhausted/fine signal.
func RecoverContextStats(ctx context.Context, d *core.Diagram, budget int) (*logictree.LT, int, error) {
	if budget == 0 {
		budget = DefaultSearchBudget
	}
	sols, nodes, err := solutionsN(ctx, d, true, budget)
	if err != nil {
		return nil, nodes, err
	}
	if len(sols) != 1 {
		return nil, nodes, &AmbiguityError{Solutions: len(sols)}
	}
	return sols[0], nodes, nil
}

// DecomposeAtRoot implements the depth-0 decomposition of Appendix B.2.1:
// it removes the root group, splits the remainder into connected
// components, and returns the table-ID sets of each component with the
// root tables re-attached — each corresponds to one subtree of the LT
// root.
func DecomposeAtRoot(d *core.Diagram) ([][]int, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, err
	}
	n := len(g.groups)
	// Union-find over non-root groups, joined by cross-group edges that
	// avoid the root.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range g.edges {
		if e.from != 0 && e.to != 0 {
			union(e.from, e.to)
		}
	}
	comps := map[int][]int{}
	var order []int
	for i := 1; i < n; i++ {
		r := find(i)
		if _, ok := comps[r]; !ok {
			order = append(order, r)
		}
		comps[r] = append(comps[r], i)
	}
	var out [][]int
	for _, r := range order {
		ids := append([]int(nil), g.groups[0]...)
		for _, gi := range comps[r] {
			ids = append(ids, g.groups[gi]...)
		}
		sort.Ints(ids)
		out = append(out, ids)
	}
	return out, nil
}
